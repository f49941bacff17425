package scenario

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzScenarioParse enforces the parser's no-panic contract: any byte
// input either parses into a validated Doc or returns an error — never
// panics, never hangs. CI runs this as a smoke alongside the other
// fuzzers. Besides the inline fragments, every committed scenario file
// is a seed, so mutations start from the real grammar.
func FuzzScenarioParse(f *testing.F) {
	seeds := []string{
		"",
		"name: a\n",
		"---\nname: a\nworld:\n  seed: 3\n",
		"name: a\nevents:\n  - at: slot 2\n    action: regional_outage\n    x: 1\n    y: 2\n    radius_km: 3\n    for: 2\n",
		"name: a\nevents:\n  - action: churn\n    fail: 0.1\n    recover: 0.5\n",
		"name: a\nstress:\n  seed: 7\n  churn:\n    fail: [0.1, 0.2]\n",
		"name: a\nstress:\n  fleet:\n    - name: t\n      weight: 1\n",
		"name: a\nassert:\n  - StrandedRequests < 10\n",
		"name: a\nassert_slot:\n  - degraded == false\n  - expr: stranded < 5\n    from: 1\n    to: 3\n",
		"name: \"quoted # name\"\nrun:\n  scheme: nearest\n",
		"name: a\nflow: [1, 2\n",
		"a:\n\tb: tab\n",
		"- seq\n- root\n",
		"name: a\nrun:\n  serve: true\n  fsync: none\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.yaml"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no committed scenario files to seed from (%v)", err)
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := Parse(data)
		if err == nil && doc == nil {
			t.Fatal("Parse returned nil doc and nil error")
		}
		if err == nil && doc.Name == "" {
			t.Fatal("Parse accepted a doc with no name")
		}
	})
}
