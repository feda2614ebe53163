package plan

import "testing"

// TestParseRange: two plain numbers with lo <= hi parse; anything else
// — trailing junk fmt.Sscanf used to skip, a missing or extra part,
// spaces, reversed bounds, NaN, infinities — is an error.
func TestParseRange(t *testing.T) {
	for _, tc := range []struct {
		in     string
		lo, hi float64
		ok     bool
	}{
		{"0.2,0.6", 0.2, 0.6, true},
		{"1,1", 1, 1, true},
		{"-1,2e1", -1, 20, true},
		{"1x,2", 0, 0, false},
		{"1,2x", 0, 0, false},
		{"0.5", 0, 0, false},
		{"1,2,3", 0, 0, false},
		{"", 0, 0, false},
		{",", 0, 0, false},
		{" 1,2", 0, 0, false},
		{"2,1", 0, 0, false},
		{"NaN,1", 0, 0, false},
		{"1,Inf", 0, 0, false},
		{"-Inf,1", 0, 0, false},
	} {
		lo, hi, err := ParseRange(tc.in)
		if (err == nil) != tc.ok || lo != tc.lo || hi != tc.hi {
			t.Errorf("ParseRange(%q) = %v, %v, %v; want %v, %v, ok=%v", tc.in, lo, hi, err, tc.lo, tc.hi, tc.ok)
		}
	}
}
