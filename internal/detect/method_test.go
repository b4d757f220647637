package detect

import "testing"

func TestMethodString(t *testing.T) {
	cases := map[Method]string{
		Scaling:       "scaling",
		Filtering:     "filtering",
		Steganalysis:  "steganalysis",
		UnknownMethod: "Method(0)",
		Method(42):    "Method(42)",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("Method(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestVerdictString(t *testing.T) {
	v := Verdict{Attack: true, Score: 123.456, Method: "scaling/MSE"}
	if got, want := v.String(), "scaling/MSE: attack (score 123.456)"; got != want {
		t.Errorf("Verdict.String() = %q, want %q", got, want)
	}
	v = Verdict{Attack: false, Score: 0.25, Method: "filtering/SSIM"}
	if got, want := v.String(), "filtering/SSIM: benign (score 0.25)"; got != want {
		t.Errorf("Verdict.String() = %q, want %q", got, want)
	}
}

func TestEnsembleVerdictString(t *testing.T) {
	ev := EnsembleVerdict{Attack: true, Votes: 2, Verdicts: make([]Verdict, 3)}
	if got, want := ev.String(), "attack (2/3 votes)"; got != want {
		t.Errorf("EnsembleVerdict.String() = %q, want %q", got, want)
	}
	ev = EnsembleVerdict{Attack: false, Votes: 1, Verdicts: make([]Verdict, 3)}
	if got, want := ev.String(), "benign (1/3 votes)"; got != want {
		t.Errorf("EnsembleVerdict.String() = %q, want %q", got, want)
	}
}
