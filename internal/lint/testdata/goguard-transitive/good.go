// Fixture for goguard's call-graph half: goroutine entries that reach a
// recover boundary — directly, transitively, or via a guard-named helper —
// plus an out-of-module callee the analysis cannot judge.
package service

import "bytes"

type Worker struct{ n int }

// runGuarded opens with a qualifying recover defer: a direct boundary.
func (w *Worker) runGuarded() {
	defer func() {
		if r := recover(); r != nil {
			w.n = -1
		}
	}()
	w.inner()
}

func (w *Worker) inner() {
	if w.n < 0 {
		panic("contained above")
	}
}

// entry reaches the boundary transitively through a synchronous call.
func (w *Worker) entry() {
	w.runGuarded()
}

// guardLoop is a boundary by name: (?i)guard matches.
func (w *Worker) guardLoop() {
	w.inner()
}

func (w *Worker) Start(buf *bytes.Buffer) {
	go w.runGuarded() // boundary at the entry itself
	go w.entry()      // boundary one call below
	go w.guardLoop()  // guard-named helper
	go buf.Reset()    // body outside the module: nothing provable, not flagged
}
