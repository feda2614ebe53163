package plan

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// ParseRange parses a command-line range "lo,hi": exactly two finite
// numbers as strconv.ParseFloat reads them, nothing else around either,
// with lo <= hi.
func ParseRange(s string) (lo, hi float64, err error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("range %q: want lo,hi", s)
	}
	if lo, err = strconv.ParseFloat(parts[0], 64); err == nil {
		hi, err = strconv.ParseFloat(parts[1], 64)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("range %q: %w", s, err)
	}
	if !(lo <= hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		return 0, 0, fmt.Errorf("range %q: want finite lo <= hi", s)
	}
	return lo, hi, nil
}
