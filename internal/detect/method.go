package detect

import "fmt"

// Method identifies one of the paper's three detection methods,
// independent of the score metric it runs with.
type Method int

// The detection methods of sections IV-A through IV-C.
const (
	// UnknownMethod is the zero value, which names no method.
	UnknownMethod Method = iota
	// Scaling is Method 1: the down-up round trip comparison.
	Scaling
	// Filtering is Method 2: the minimum-filter comparison.
	Filtering
	// Steganalysis is Method 3: centered spectrum points.
	Steganalysis
)

// String implements fmt.Stringer, returning the method-name prefix used
// in scorer names ("scaling" in "scaling/MSE").
func (m Method) String() string {
	switch m {
	case Scaling:
		return "scaling"
	case Filtering:
		return "filtering"
	case Steganalysis:
		return "steganalysis"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// String implements fmt.Stringer: "scaling/MSE: attack (score 123.456)".
func (v Verdict) String() string {
	cls := "benign"
	if v.Attack {
		cls = "attack"
	}
	return fmt.Sprintf("%s: %s (score %.6g)", v.Method, cls, v.Score)
}

// String implements fmt.Stringer: "attack (2/3 votes)".
func (v EnsembleVerdict) String() string {
	cls := "benign"
	if v.Attack {
		cls = "attack"
	}
	return fmt.Sprintf("%s (%d/%d votes)", cls, v.Votes, len(v.Verdicts))
}
