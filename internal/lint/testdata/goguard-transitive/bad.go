// Fixture for goguard's call-graph half: named functions launched by `go`
// that never reach a recover boundary through the call graph.
package service

type Server struct{ n int }

// process panics on bad state and has no recover anywhere beneath it.
func (s *Server) process() {
	if s.n < 0 {
		panic("bad state")
	}
	s.step()
}

func (s *Server) step() { s.n++ }

// spin never panics today, but nothing under it recovers either — the rule
// proves guards, not absence of panics.
func spin(ch chan int) {
	for v := range ch {
		_ = v
	}
}

func (s *Server) Run(ch chan int) {
	go s.process() // want goguard
	go spin(ch)    // want goguard
}
