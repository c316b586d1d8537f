// Package fixture is goguard's clean syntactic fixture: every accepted
// guard shape of a `go func` literal.
package fixture

func good(s *server) {
	// Deferred literal that calls recover().
	go func() {
		defer func() {
			if r := recover(); r != nil {
				logPanic(r)
			}
		}()
		work()
	}()

	// Deferred named guard (method form).
	go func() {
		defer s.guardPanic("flush")
		work()
	}()

	// Deferred named guard (function form, "recover" in the name).
	go func() {
		defer recoverToLog("flush")
		work()
	}()

	// A named launch is checked through the call graph, by goguard's
	// package half (testdata/goguard-transitive), not here.
	go named()

	go func() { work() }() //lint:allow goguard -- dies with the process by design
}
