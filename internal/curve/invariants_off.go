//go:build !merlin_invariants

package curve

// Production mirror of invariants_on.go: the assertion hooks compile to empty
// functions the inliner erases, so the DP hot loops pay nothing for the
// invariant layer. See invariants_on.go for what each assertion enforces.

// InvariantsEnabled reports whether this build carries the runtime invariant
// assertions.
const InvariantsEnabled = false

func assertFrontier(*Curve, string)               {}
func assertNonInferior(*Curve, string)            {}
func assertInserted(*Curve, string)               {}
func assertFiniteDelay(float64, string)           {}
func assertNotAliased(*Curve, []Solution, string) {}
