package model

import "testing"

func TestStandardSuspects(t *testing.T) {
	const n = 5
	cases := []struct {
		name       string
		rep        SuspectReport
		want       ProcSet
		isStandard bool
	}{
		{
			name:       "standard report maps to itself",
			rep:        SuspectReport{Suspects: SetOf(1, 3)},
			want:       SetOf(1, 3),
			isStandard: true,
		},
		{
			name:       "empty standard report",
			rep:        SuspectReport{},
			want:       EmptySet(),
			isStandard: true,
		},
		{
			name:       "correct-set report maps to its complement",
			rep:        SuspectReport{CorrectReport: true, Correct: SetOf(0, 2, 4)},
			want:       SetOf(1, 3),
			isStandard: true,
		},
		{
			name:       "everyone-correct report maps to nobody suspected",
			rep:        SuspectReport{CorrectReport: true, Correct: FullSet(n)},
			want:       EmptySet(),
			isStandard: true,
		},
		{
			name:       "generalized report identifies nobody",
			rep:        SuspectReport{Generalized: true, Group: SetOf(1, 2), MinFaulty: 1},
			want:       EmptySet(),
			isStandard: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, isStandard := tc.rep.StandardSuspects(n)
			if isStandard != tc.isStandard || !got.Equal(tc.want) {
				t.Fatalf("StandardSuspects = %v,%v want %v,%v", got, isStandard, tc.want, tc.isStandard)
			}
		})
	}
}

func TestSuspectReportString(t *testing.T) {
	cases := []struct {
		rep  SuspectReport
		want string
	}{
		{SuspectReport{Suspects: SetOf(2)}, "suspect{2}"},
		{SuspectReport{Generalized: true, Group: SetOf(0, 1), MinFaulty: 2}, "suspect({0,1},2)"},
		{SuspectReport{CorrectReport: true, Correct: SetOf(0, 3)}, "correct{0,3}"},
	}
	for _, tc := range cases {
		if got := tc.rep.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestSuspectsAtAppliesGMapping(t *testing.T) {
	r := NewRun(4)
	rep := SuspectReport{CorrectReport: true, Correct: SetOf(0, 1, 2)}
	if err := r.Append(0, 5, SuspectEvent(rep)); err != nil {
		t.Fatalf("append: %v", err)
	}
	r.SetHorizon(10)
	if got := r.SuspectsAt(0, 10); !got.Equal(Singleton(3)) {
		t.Fatalf("SuspectsAt = %v, want {3}", got)
	}
	if got := r.SuspectsAt(0, 4); !got.IsEmpty() {
		t.Fatalf("SuspectsAt before the report should be empty, got %v", got)
	}
}

func TestIdentityHashDistinguishesReportForms(t *testing.T) {
	standard := SuspectEvent(SuspectReport{Suspects: SetOf(1)})
	correct := SuspectEvent(SuspectReport{CorrectReport: true, Correct: SetOf(0, 2, 3)})
	generalized := SuspectEvent(SuspectReport{Generalized: true, Group: SetOf(1), MinFaulty: 1})
	keys := map[uint64]bool{
		standard.IdentityHash():    true,
		correct.IdentityHash():     true,
		generalized.IdentityHash(): true,
	}
	if len(keys) != 3 {
		t.Fatalf("report forms must have distinct identity hashes")
	}
}
