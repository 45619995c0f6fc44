package rules

import (
	"math"
	"math/rand"
	"testing"

	"specmine/internal/mine"
	"specmine/internal/seqdb"
)

func mkdb(traces ...[]string) *seqdb.Database {
	db := seqdb.NewDatabase()
	for _, t := range traces {
		db.AppendNames(t...)
	}
	return db
}

func TestOptionsValidate(t *testing.T) {
	valid := Options{MinSeqSupport: 1, MinInstanceSupport: 1, MinConfidence: 0.5}
	if err := valid.Validate(); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
	bad := []Options{
		{},
		{MinSeqSupport: 1, MinInstanceSupport: 0, MinConfidence: 0.5},
		{MinSeqSupport: 1, MinInstanceSupport: 1, MinConfidence: 0},
		{MinSeqSupport: 1, MinInstanceSupport: 1, MinConfidence: 1.5},
		{MinSeqSupport: 1, MinInstanceSupport: 1, MinConfidence: 0.5, MaxPremiseLength: -1},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
	if got := (Options{MinSeqSupportRel: 0.5, MinInstanceSupport: 1, MinConfidence: 1}).absoluteSeqSupport(10); got != 5 {
		t.Errorf("absoluteSeqSupport=%d want 5", got)
	}
	if _, err := MineFull(seqdb.NewDatabase(), Options{}); err == nil {
		t.Errorf("MineFull accepted invalid options")
	}
	if _, err := MineNonRedundant(seqdb.NewDatabase(), Options{}); err == nil {
		t.Errorf("MineNonRedundant accepted invalid options")
	}
}

func TestEvaluateRuleLockUnlock(t *testing.T) {
	// "Whenever a lock is acquired, eventually it is released."
	db := mkdb(
		[]string{"lock", "use", "unlock"},
		[]string{"lock", "use", "unlock", "lock", "unlock"},
		[]string{"lock", "use"}, // violating trace
		[]string{"idle"},
	)
	pre := seqdb.ParsePattern(db.Dict, "lock")
	post := seqdb.ParsePattern(db.Dict, "unlock")
	r := EvaluateRule(db, pre, post)
	if r.SeqSupport != 3 {
		t.Errorf("s-sup=%d want 3", r.SeqSupport)
	}
	// Temporal points of <lock>: 4 (one in trace 1, two in trace 2, one in
	// trace 3). Satisfied: 3 (trace 3's is not followed by unlock).
	if math.Abs(r.Confidence-0.75) > 1e-9 {
		t.Errorf("conf=%v want 0.75", r.Confidence)
	}
	// Temporal points of <lock, unlock>: trace1: unlock@2 -> 1; trace2:
	// unlock@2, unlock@4 -> 2; total 3.
	if r.InstanceSupport != 3 {
		t.Errorf("i-sup=%d want 3", r.InstanceSupport)
	}
}

func TestTemporalPointsDefinition(t *testing.T) {
	db := mkdb([]string{"a", "b", "a", "b", "b"})
	s := db.Sequences[0]
	pre := seqdb.ParsePattern(db.Dict, "a b")
	got := TemporalPoints(s, pre)
	want := []int{1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("temporal points %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("temporal points %v want %v", got, want)
		}
	}
}

func TestMineFullSimpleRule(t *testing.T) {
	db := mkdb(
		[]string{"lock", "use", "unlock"},
		[]string{"lock", "write", "unlock"},
		[]string{"lock", "read", "unlock"},
	)
	res, err := MineFull(db, Options{MinSeqSupport: 3, MinInstanceSupport: 1, MinConfidence: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	rule, ok := res.Find(seqdb.ParsePattern(db.Dict, "lock"), seqdb.ParsePattern(db.Dict, "unlock"))
	if !ok {
		t.Fatalf("lock -> unlock not mined; got:\n%s", res.Render(db.Dict, 0))
	}
	if rule.SeqSupport != 3 || rule.InstanceSupport != 3 || rule.Confidence != 1.0 {
		t.Errorf("lock -> unlock stats wrong: %+v", rule)
	}
	// unlock -> lock must not appear at confidence 1.0.
	if _, ok := res.Find(seqdb.ParsePattern(db.Dict, "unlock"), seqdb.ParsePattern(db.Dict, "lock")); ok {
		t.Errorf("unlock -> lock mined despite zero confidence")
	}
}

func TestMinedRuleStatisticsMatchEvaluateRule(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for iter := 0; iter < 10; iter++ {
		db := seqdb.NewDatabase()
		for i := 0; i < 5; i++ {
			n := 2 + rng.Intn(8)
			names := make([]string, n)
			for j := range names {
				names[j] = string(rune('a' + rng.Intn(3)))
			}
			db.AppendNames(names...)
		}
		opts := Options{MinSeqSupport: 2, MinInstanceSupport: 1, MinConfidence: 0.5, MaxPremiseLength: 3, MaxConsequentLength: 3}
		res, err := MineFull(db, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Rules {
			want := EvaluateRule(db, r.Pre, r.Post)
			if want.SeqSupport != r.SeqSupport || want.InstanceSupport != r.InstanceSupport ||
				math.Abs(want.Confidence-r.Confidence) > 1e-9 {
				t.Fatalf("iter %d: stats mismatch for %s: mined %+v direct %+v", iter, r.String(db.Dict), r, want)
			}
			if r.Confidence+1e-9 < opts.MinConfidence {
				t.Fatalf("iter %d: rule below confidence threshold emitted: %s", iter, r.String(db.Dict))
			}
			if r.SeqSupport < opts.MinSeqSupport || r.InstanceSupport < opts.MinInstanceSupport {
				t.Fatalf("iter %d: rule below support thresholds emitted: %s", iter, r.String(db.Dict))
			}
		}
	}
}

// bruteRules enumerates every significant rule by generating all premise and
// consequent combinations up to the given lengths and scoring them with
// EvaluateRule.
func bruteRules(db *seqdb.Database, opts Options, maxPre, maxPost int) map[string]Rule {
	events := db.FrequentEvents(1)
	var patterns []seqdb.Pattern
	var gen func(p seqdb.Pattern, maxLen int)
	gen = func(p seqdb.Pattern, maxLen int) {
		if len(p) > 0 {
			patterns = append(patterns, p.Clone())
		}
		if len(p) >= maxLen {
			return
		}
		for _, e := range events {
			gen(p.Append(e), maxLen)
		}
	}
	maxLen := maxPre
	if maxPost > maxLen {
		maxLen = maxPost
	}
	gen(nil, maxLen)

	minSeqSup := opts.absoluteSeqSupport(db.NumSequences())
	out := make(map[string]Rule)
	for _, pre := range patterns {
		if len(pre) > maxPre {
			continue
		}
		for _, post := range patterns {
			if len(post) > maxPost {
				continue
			}
			r := EvaluateRule(db, pre, post)
			if r.SeqSupport >= minSeqSup && r.InstanceSupport >= opts.MinInstanceSupport &&
				r.Confidence+1e-12 >= opts.MinConfidence {
				out[r.Key()] = r
			}
		}
	}
	return out
}

func TestMineFullAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for iter := 0; iter < 12; iter++ {
		db := seqdb.NewDatabase()
		for i := 0; i < 4; i++ {
			n := 2 + rng.Intn(6)
			names := make([]string, n)
			for j := range names {
				names[j] = string(rune('a' + rng.Intn(3)))
			}
			db.AppendNames(names...)
		}
		opts := Options{
			MinSeqSupport:       2,
			MinInstanceSupport:  1,
			MinConfidence:       0.6,
			MaxPremiseLength:    2,
			MaxConsequentLength: 2,
		}
		res, err := MineFull(db, opts)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteRules(db, opts, 2, 2)
		got := make(map[string]Rule)
		for _, r := range res.Rules {
			got[r.Key()] = r
		}
		for key, w := range want {
			g, ok := got[key]
			if !ok {
				t.Fatalf("iter %d: full miner missed rule %s -> %s (db=%v)", iter, w.Pre.String(db.Dict), w.Post.String(db.Dict), db.Sequences)
			}
			if g.SeqSupport != w.SeqSupport || g.InstanceSupport != w.InstanceSupport || math.Abs(g.Confidence-w.Confidence) > 1e-9 {
				t.Fatalf("iter %d: stats mismatch for %s: %+v vs %+v", iter, key, g, w)
			}
		}
		for key := range got {
			if _, ok := want[key]; !ok {
				t.Fatalf("iter %d: full miner emitted unexpected rule %s", iter, key)
			}
		}
	}
}

func TestMineNonRedundantCoversFullSet(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for iter := 0; iter < 10; iter++ {
		db := seqdb.NewDatabase()
		for i := 0; i < 4; i++ {
			n := 2 + rng.Intn(6)
			names := make([]string, n)
			for j := range names {
				names[j] = string(rune('a' + rng.Intn(3)))
			}
			db.AppendNames(names...)
		}
		opts := Options{
			MinSeqSupport:       2,
			MinInstanceSupport:  1,
			MinConfidence:       0.6,
			MaxPremiseLength:    2,
			MaxConsequentLength: 2,
		}
		full, err := MineFull(db, opts)
		if err != nil {
			t.Fatal(err)
		}
		nr, err := MineNonRedundant(db, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(nr.Rules) > len(full.Rules) {
			t.Fatalf("iter %d: NR set (%d) larger than full set (%d)", iter, len(nr.Rules), len(full.Rules))
		}
		fullByKey := make(map[string]Rule)
		for _, r := range full.Rules {
			fullByKey[r.Key()] = r
		}
		// 1. Every NR rule is a significant rule with identical statistics.
		for _, r := range nr.Rules {
			f, ok := fullByKey[r.Key()]
			if !ok {
				t.Fatalf("iter %d: NR rule %s not in full set", iter, r.String(db.Dict))
			}
			if f.SeqSupport != r.SeqSupport || f.InstanceSupport != r.InstanceSupport || math.Abs(f.Confidence-r.Confidence) > 1e-9 {
				t.Fatalf("iter %d: NR stats differ from full for %s", iter, r.Key())
			}
		}
		// 2. Every full rule is either in the NR set or redundant with respect
		//    to it: some NR rule with identical statistics has a super-sequence
		//    concatenation.
		for _, f := range full.Rules {
			covered := false
			fc := f.Concat()
			for _, r := range nr.Rules {
				if r.SeqSupport == f.SeqSupport && r.InstanceSupport == f.InstanceSupport &&
					math.Abs(r.Confidence-f.Confidence) < 1e-9 && fc.IsSubsequenceOf(r.Concat()) {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("iter %d: full rule %s not covered by NR set\nfull:\n%snr:\n%s",
					iter, f.String(db.Dict), full.Render(db.Dict, 0), nr.Render(db.Dict, 0))
			}
		}
		// 3. No rule in the NR set is redundant with respect to the NR set.
		for _, r := range nr.Rules {
			if IsRedundant(r, nr.Rules) {
				t.Fatalf("iter %d: NR set still contains redundant rule %s", iter, r.String(db.Dict))
			}
		}
	}
}

func TestInitTerminationMultiEventRule(t *testing.T) {
	// "Whenever a series of initialization events is performed, eventually a
	// series of termination events is also performed." — a multi-event rule
	// that two-event miners (Section 2's discussion of Perracotta) cannot
	// express.
	db := mkdb(
		[]string{"init_cfg", "init_net", "work", "work", "stop_net", "stop_cfg"},
		[]string{"init_cfg", "init_net", "work", "stop_net", "stop_cfg"},
		[]string{"init_cfg", "init_net", "stop_net", "stop_cfg"},
		[]string{"noise", "noise"},
	)
	opts := Options{MinSeqSupport: 3, MinInstanceSupport: 1, MinConfidence: 1.0}
	res, err := MineNonRedundant(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The maximal initialization/termination behaviour must be captured. Per
	// Definition 5.2's tie-break, among the equal-concatenation variants the
	// one with the shortest premise is retained.
	pre := seqdb.ParsePattern(db.Dict, "init_cfg")
	post := seqdb.ParsePattern(db.Dict, "init_net stop_net stop_cfg")
	rule, ok := res.Find(pre, post)
	if !ok {
		t.Fatalf("initialization -> termination rule not found:\n%s", res.Render(db.Dict, 0))
	}
	if rule.SeqSupport != 3 || rule.Confidence != 1.0 {
		t.Errorf("unexpected stats: %+v", rule)
	}
	// The equal-concatenation variant with the longer premise is redundant.
	if _, ok := res.Find(seqdb.ParsePattern(db.Dict, "init_cfg init_net"), seqdb.ParsePattern(db.Dict, "stop_net stop_cfg")); ok {
		t.Errorf("longer-premise variant should have been removed by the tie-break:\n%s", res.Render(db.Dict, 0))
	}
	// The full miner, by contrast, reports both variants.
	full, err := MineFull(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := full.Find(seqdb.ParsePattern(db.Dict, "init_cfg init_net"), seqdb.ParsePattern(db.Dict, "stop_net stop_cfg")); !ok {
		t.Errorf("full miner should report the longer-premise variant:\n%s", full.Render(db.Dict, 0))
	}
}

func TestNonRedundantSuppressesShorterConsequents(t *testing.T) {
	db := mkdb(
		[]string{"a", "x", "y", "z"},
		[]string{"a", "x", "y", "z"},
		[]string{"a", "x", "y", "z"},
	)
	res, err := MineNonRedundant(db, Options{MinSeqSupport: 3, MinInstanceSupport: 1, MinConfidence: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	// a -> <x> and a -> <x,y> are redundant with respect to a -> <x,y,z>.
	if _, ok := res.Find(seqdb.ParsePattern(db.Dict, "a"), seqdb.ParsePattern(db.Dict, "x")); ok {
		t.Errorf("a -> x should be redundant:\n%s", res.Render(db.Dict, 0))
	}
	if _, ok := res.Find(seqdb.ParsePattern(db.Dict, "a"), seqdb.ParsePattern(db.Dict, "x y z")); !ok {
		t.Errorf("a -> x y z missing:\n%s", res.Render(db.Dict, 0))
	}
	full, err := MineFull(db, Options{MinSeqSupport: 3, MinInstanceSupport: 1, MinConfidence: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Rules) <= len(res.Rules) {
		t.Errorf("full (%d) should exceed NR (%d)", len(full.Rules), len(res.Rules))
	}
}

func TestRuleHelpers(t *testing.T) {
	d := seqdb.NewDictionary()
	r := Rule{
		Pre:             seqdb.ParsePattern(d, "a b"),
		Post:            seqdb.ParsePattern(d, "c"),
		SeqSupport:      2,
		InstanceSupport: 3,
		Confidence:      0.5,
	}
	if r.Concat().String(d) != "<a, b, c>" {
		t.Errorf("Concat=%s", r.Concat().String(d))
	}
	if r.String(d) == "" || r.Key() == "" {
		t.Errorf("String/Key empty")
	}
	res := &Result{Rules: []Rule{r}}
	if out := res.Render(d, 0); out == "" {
		t.Errorf("Render empty")
	}
	if _, ok := res.Find(r.Pre, r.Post); !ok {
		t.Errorf("Find failed")
	}
	groups := GroupByStatistics([]Rule{r, r})
	if len(groups) != 1 {
		t.Errorf("GroupByStatistics groups=%d", len(groups))
	}
}

func TestFilterRedundant(t *testing.T) {
	d := seqdb.NewDictionary()
	short := Rule{Pre: seqdb.ParsePattern(d, "a"), Post: seqdb.ParsePattern(d, "b"), SeqSupport: 2, InstanceSupport: 2, Confidence: 1}
	long := Rule{Pre: seqdb.ParsePattern(d, "a"), Post: seqdb.ParsePattern(d, "b c"), SeqSupport: 2, InstanceSupport: 2, Confidence: 1}
	other := Rule{Pre: seqdb.ParsePattern(d, "x"), Post: seqdb.ParsePattern(d, "y"), SeqSupport: 3, InstanceSupport: 3, Confidence: 1}
	out := FilterRedundant([]Rule{short, long, other})
	if len(out) != 2 {
		t.Fatalf("FilterRedundant kept %d rules, want 2", len(out))
	}
	for _, r := range out {
		if r.Key() == short.Key() {
			t.Errorf("short rule should have been removed")
		}
	}
	// Same concatenation: prefer the shorter premise.
	a := Rule{Pre: seqdb.ParsePattern(d, "a b"), Post: seqdb.ParsePattern(d, "c"), SeqSupport: 2, InstanceSupport: 2, Confidence: 1}
	b := Rule{Pre: seqdb.ParsePattern(d, "a"), Post: seqdb.ParsePattern(d, "b c"), SeqSupport: 2, InstanceSupport: 2, Confidence: 1}
	out2 := FilterRedundant([]Rule{a, b})
	if len(out2) != 1 || out2[0].Key() != b.Key() {
		t.Errorf("tie-break should keep the shorter premise: %v", out2)
	}
}

func TestStatsPopulated(t *testing.T) {
	db := mkdb(
		[]string{"a", "b", "a", "b"},
		[]string{"a", "b"},
	)
	res, err := MineNonRedundant(db, Options{MinSeqSupport: 2, MinInstanceSupport: 1, MinConfidence: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PremisesExplored == 0 || res.Stats.ConsequentNodesExplored == 0 {
		t.Errorf("stats not recorded: %+v", res.Stats)
	}
	if res.Stats.RulesEmitted != len(res.Rules) {
		t.Errorf("RulesEmitted mismatch")
	}
	if res.Stats.Duration <= 0 {
		t.Errorf("Duration not recorded")
	}
}

// TestStatsSeedsCountsFrequentEvents: Stats.Seeds is the number of single
// events meeting the sequence-support threshold, for both miners and any
// worker count.
func TestStatsSeedsCountsFrequentEvents(t *testing.T) {
	// a in 3 sequences, b in 2, c and d in 1 -> two seeds at support 2.
	db := mkdb(
		[]string{"a", "b", "c"},
		[]string{"a", "b"},
		[]string{"a", "d"},
	)
	opts := Options{MinSeqSupport: 2, MinInstanceSupport: 1, MinConfidence: 0.5}
	for _, nonRedundant := range []bool{false, true} {
		for _, workers := range []int{1, 2} {
			opts.Workers = workers
			res, err := Mine(db, opts, nonRedundant)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Seeds != 2 {
				t.Errorf("nonRedundant=%v workers=%d: Seeds=%d want 2", nonRedundant, workers, res.Stats.Seeds)
			}
		}
	}
}

// TestJobScheduleKeepsSeedsContiguous: phase-3 jobs run heaviest first, but
// every seed's jobs stay together, seeds ordered by their heaviest job.
func TestJobScheduleKeepsSeedsContiguous(t *testing.T) {
	job := func(seed seqdb.EventID, weight int) consequentJob {
		return consequentJob{pre: seqdb.Pattern{seed}, proj: make([]mine.Proj, weight)}
	}
	jobs := []consequentJob{job(0, 2), job(1, 5), job(0, 4), job(2, 1), job(1, 3)}
	got := jobSchedule(jobs)
	want := []int{1, 4, 2, 0, 3} // seed 1 (5, 3), seed 0 (4, 2), seed 2 (1)
	if len(got) != len(want) {
		t.Fatalf("schedule %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("schedule %v want %v", got, want)
		}
	}
}
