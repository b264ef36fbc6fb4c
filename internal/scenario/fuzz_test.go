package scenario

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzScenarioParse fuzzes the scenario text parser: arbitrary input
// must either be rejected with an error or produce a scenario whose
// canonical form is stable — Write must emit text that reparses to a
// DeepEqual scenario. The seed corpus (testdata/fuzz/FuzzScenarioParse)
// holds the regressions this fuzzer has found: negative event pins and
// non-finite floats both used to parse fine and then break the
// round-trip.
func FuzzScenarioParse(f *testing.F) {
	for _, sc := range Library() {
		var buf bytes.Buffer
		if err := sc.Write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	for _, seed := range []int64{1, 17, 99} {
		var buf bytes.Buffer
		if err := Generate(GenOptions{Seed: seed}).Write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	f.Add("scenario x\nnodes 10\nseed 1\n\nat 5 switch\n")
	f.Add("scenario x\nnodes 10\nseed 1\nnet loss=0.1 jitter=40 ping=80\n\nat 5 switch to=3 failure horizon=9\nat 9 partition frac=0.5 by=ping\nat 11 heal\n")
	f.Add("# comment\nscenario a0\ndesc words here\nnodes 4\nm 3\nseed -7\nfirst 2\nspread 3\nhorizon 20\nduration 90\nchurn 0.01 0.02\nperlink\nqs 30\n\nat 1 measure for=10\nat 2 churnburst for=3 leave=0.1 join=0.2\nat 3 crowd count=2 backlog=5\nat 4 bandwidth factor=0.5\n")
	f.Fuzz(func(t *testing.T, text string) {
		sc, err := Parse(strings.NewReader(text))
		if err != nil {
			return // rejected input is fine; crashing or looping is not
		}
		var buf bytes.Buffer
		if err := sc.Write(&buf); err != nil {
			t.Fatalf("accepted scenario does not write: %v", err)
		}
		re, err := Parse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("canonical text does not reparse: %v\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(re, sc) {
			t.Fatalf("canonical form unstable:\n%+v\nvs\n%+v\ntext:\n%s", sc, re, buf.String())
		}
	})
}
