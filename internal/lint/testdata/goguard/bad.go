// Package fixture is goguard's syntactic fixture: goroutine literals in
// serving code with no panic guard. Checked as internal/service/bad.go.
package fixture

func bad(s *server) {
	go func() { // want goguard
		work()
	}()

	go func(x int) { // want goguard
		defer cleanup() // a defer, but not a guard
		use(x)
	}(1)

	go func() { // want goguard
		defer func() { flush() }() // deferred literal without recover()
		work()
	}()
}
