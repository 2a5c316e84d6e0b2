// Package golden compares a test's computed digest table with a committed
// fixture under the calling package's testdata directory.
package golden

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Check compares computed fixture lines ("key<TAB>values") with
// testdata/<name>, naming every key whose values moved, that the fixture
// lacks, or that the fixture holds but the computation no longer produces.
// With subset set, only the computed keys are checked. On any difference
// the recomputed table goes to a temporary file whose path is logged.
func Check(t testing.TB, name string, lines []string, subset bool) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Errorf("fixture %s unreadable: %v", name, err)
	}
	want := map[string]string{}
	var order []string
	for _, l := range strings.Split(string(raw), "\n") {
		if l == "" {
			continue
		}
		k, v, _ := strings.Cut(l, "\t")
		want[k] = v
		order = append(order, k)
	}
	got := map[string]bool{}
	var diffs []string
	for _, l := range lines {
		k, v, _ := strings.Cut(l, "\t")
		got[k] = true
		if w, ok := want[k]; !ok {
			diffs = append(diffs, "new     "+k)
		} else if w != v {
			diffs = append(diffs, fmt.Sprintf("moved   %s\n\t\twant %s\n\t\tgot  %s", k, w, v))
		}
	}
	if !subset {
		for _, k := range order {
			if !got[k] {
				diffs = append(diffs, "dropped "+k)
			}
		}
	}
	if len(diffs) == 0 {
		return
	}
	t.Errorf("%d of %d entries differ from testdata/%s:\n\t%s", len(diffs), len(lines), name, strings.Join(diffs, "\n\t"))
	f, err := os.CreateTemp("", strings.TrimSuffix(name, ".golden")+"-*.golden")
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.WriteString(strings.Join(lines, "\n") + "\n")
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("recomputed table written to %s; review it and copy it over testdata/%s", f.Name(), name)
}
