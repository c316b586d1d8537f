package degrade

import "testing"

func TestHysteresis(t *testing.T) {
	type step struct {
		want     int32
		calm     bool
		from, to int32
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"one-step raise", []step{
			{1, false, 0, 1},
			{2, false, 1, 2},
		}},
		{"two-level jump", []step{
			{2, false, 0, 2},
		}},
		{"lowers one level per cooldown", []step{
			{2, false, 0, 2},
			{0, true, 2, 2},
			{0, true, 2, 1},
			{0, true, 1, 1},
			{0, true, 1, 0},
			{0, true, 0, 0},
		}},
		{"a sample that is neither hot nor calm resets the count", []step{
			{1, false, 0, 1},
			{0, true, 1, 1},
			{0, false, 1, 1},
			{0, true, 1, 1},
			{0, true, 1, 0},
		}},
		{"a hot sample at the top level resets the count", []step{
			{2, false, 0, 2},
			{0, true, 2, 2},
			{2, false, 2, 2},
			{0, true, 2, 2},
			{0, true, 2, 1},
		}},
		{"a want below the level neither raises nor lowers", []step{
			{2, false, 0, 2},
			{1, false, 2, 2},
		}},
	}
	for _, tc := range cases {
		h := NewHysteresis(2)
		for i, s := range tc.steps {
			from, to := h.Step(s.want, s.calm)
			if from != s.from || to != s.to || h.Level() != s.to {
				t.Errorf("%s: step %d Step(%d, %v) = (%d, %d), Level %d; want (%d, %d)",
					tc.name, i, s.want, s.calm, from, to, h.Level(), s.from, s.to)
			}
		}
	}
}
