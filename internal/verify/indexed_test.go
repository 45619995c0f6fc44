package verify

import (
	"math/rand"
	"reflect"
	"testing"

	"specmine/internal/rules"
	"specmine/internal/seqdb"
	"specmine/internal/tracesim"
)

// checkIndexedMatchesOnline asserts the indexed (pull-based) evaluator
// produces reports byte-identical to the online automaton: same counters,
// same violations in the same order, same formulas.
func checkIndexedMatchesOnline(t *testing.T, label string, db *seqdb.Database, ruleSet []rules.Rule) {
	t.Helper()
	engine, err := NewEngine(ruleSet)
	if err != nil {
		t.Fatalf("%s: NewEngine: %v", label, err)
	}
	want := engine.Check(db)
	got := engine.NewReports()
	c := engine.NewIndexedChecker(db.FlatIndex())
	for si := range db.Sequences {
		c.CheckSeq(si, si, nil, got)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: indexed reports diverge from online automaton:\n got %+v\nwant %+v", label, got, want)
	}
}

func TestIndexedMatchesOnlineOnWorkloads(t *testing.T) {
	for name, w := range tracesim.Workloads() {
		train := w.MustGenerate(30, 7)
		ruleSet := minedRules(t, train)
		if len(ruleSet) == 0 {
			t.Fatalf("%s: no rules mined", name)
		}
		checkIndexedMatchesOnline(t, name+"/train", train, ruleSet)
		fresh := w
		fresh.ViolationRate = 0.3
		db2, err := fresh.Generate(40, 99)
		if err != nil {
			t.Fatal(err)
		}
		merged := seqdb.NewDatabaseWithDict(train.Dict)
		for _, s := range db2.Sequences {
			names := make([]string, len(s))
			for i, ev := range s {
				names[i] = db2.Dict.Name(ev)
			}
			merged.AppendNames(names...)
		}
		checkIndexedMatchesOnline(t, name+"/fresh", merged, ruleSet)
	}
}

// TestIndexedMatchesOnlineRandomized hammers the equivalence with random
// rules over random traces, including repeated events inside premises and
// consequents (the latest-embedding edge cases) and rules over events that
// never occur.
func TestIndexedMatchesOnlineRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for iter := 0; iter < 60; iter++ {
		db := seqdb.NewDatabase()
		alphabet := 3 + rng.Intn(4)
		for i := 0; i < alphabet+1; i++ { // one event more than traces use
			db.Dict.Intern(string(rune('a' + i)))
		}
		for i := 0; i < 2+rng.Intn(5); i++ {
			n := 1 + rng.Intn(14)
			s := make(seqdb.Sequence, n)
			for j := range s {
				s[j] = seqdb.EventID(rng.Intn(alphabet))
			}
			db.Append(s)
		}
		var ruleSet []rules.Rule
		for r := 0; r < 1+rng.Intn(8); r++ {
			pre := make(seqdb.Pattern, 1+rng.Intn(3))
			for j := range pre {
				pre[j] = seqdb.EventID(rng.Intn(alphabet + 1))
			}
			post := make(seqdb.Pattern, 1+rng.Intn(3))
			for j := range post {
				post[j] = seqdb.EventID(rng.Intn(alphabet + 1))
			}
			ruleSet = append(ruleSet, rules.Rule{Pre: pre, Post: post})
		}
		checkIndexedMatchesOnline(t, "random", db, ruleSet)
	}
}

// TestIndexedActionsSound pins the two gated actions against full evaluation
// on traces where their soundness conditions hold: ActionSatisfied on traces
// missing a premise event, ActionShortCircuit on traces missing a consequent
// event.
func TestIndexedActionsSound(t *testing.T) {
	d := seqdb.NewDictionary()
	mk := func(pre, post string) rules.Rule {
		return rules.Rule{Pre: seqdb.ParsePattern(d, pre), Post: seqdb.ParsePattern(d, post)}
	}
	ruleSet := []rules.Rule{mk("a b", "x"), mk("a", "y")}
	engine, err := NewEngine(ruleSet)
	if err != nil {
		t.Fatal(err)
	}
	db := seqdb.NewDatabaseWithDict(d)
	db.AppendNames("a", "b", "x")      // rule 0 satisfied, rule 1: y absent
	db.AppendNames("a", "x", "a", "b") // rule 0: violated (no x after ab)... x occurs before b only
	db.AppendNames("b", "x", "y")      // rule 0: a absent; rule 1: a absent
	idx := db.FlatIndex()

	want := engine.Check(db)
	got := engine.NewReports()
	c := engine.NewIndexedChecker(idx)
	actions := make([]RuleAction, engine.NumRules())
	for s := range db.Sequences {
		for r := 0; r < engine.NumRules(); r++ {
			contains := func(e seqdb.EventID) bool { return idx.SeqContains(s, e) }
			switch {
			case !engine.PremiseMayOccur(r, contains):
				actions[r] = ActionSatisfied
			case !engine.ConsequentMayOccur(r, contains):
				actions[r] = ActionShortCircuit
			default:
				actions[r] = ActionEvaluate
			}
		}
		c.CheckSeq(s, s, actions, got)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("gated reports diverge:\n got %+v\nwant %+v", got, want)
	}
}

func TestMetricsMerge(t *testing.T) {
	a := Metrics{TracesChecked: 1, TracesSkipped: 2, SegmentsChecked: 3, SegmentsSkipped: 4,
		RuleTraceGates: 5, ConsequentShortCircuits: 6, ProbesIssued: 7}
	b := a
	b.Merge(a)
	want := Metrics{TracesChecked: 2, TracesSkipped: 4, SegmentsChecked: 6, SegmentsSkipped: 8,
		RuleTraceGates: 10, ConsequentShortCircuits: 12, ProbesIssued: 14}
	if b != want {
		t.Fatalf("Merge: got %+v want %+v", b, want)
	}
}
