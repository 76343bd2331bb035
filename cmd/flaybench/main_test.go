package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestSelectSections pins the -only contract: empty selects all,
// unknown names and empty selections are errors (not silent no-ops),
// whitespace and stray commas are tolerated.
func TestSelectSections(t *testing.T) {
	known := sectionNames()

	if want, err := selectSections("", known); err != nil || want != nil {
		t.Fatalf("empty -only: want=%v err=%v, want nil/nil (all sections)", want, err)
	}

	want, err := selectSections("burst, churn", known)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 2 || !want["burst"] || !want["churn"] {
		t.Fatalf("selection = %v, want {burst, churn}", want)
	}

	if _, err := selectSections("bursty", known); err == nil {
		t.Fatal("unknown section must be an error")
	} else if !strings.Contains(err.Error(), "bursty") {
		t.Fatalf("error %q does not name the bad section", err)
	}

	if _, err := selectSections("burst,nope", known); err == nil {
		t.Fatal("one unknown name in a valid list must still be an error")
	}

	if _, err := selectSections(" , ,", known); err == nil {
		t.Fatal("a selection of only separators must be an error")
	}

	if w, err := selectSections("churn,", known); err != nil || len(w) != 1 {
		t.Fatalf("trailing comma: want={churn} err=%v", err)
	}
}

// TestSectionRegistry: every documented section is registered, exactly
// once, and the churn section (the bench-json artifact the soak recipe
// references) is present.
func TestSectionRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range benchSections {
		if seen[s.name] {
			t.Fatalf("section %q registered twice", s.name)
		}
		if s.run == nil {
			t.Fatalf("section %q has no run function", s.name)
		}
		seen[s.name] = true
	}
	for _, required := range []string{"table1", "table2", "table3", "burst", "batch", "warmstart", "dd", "precision", "churn", "ablation", "scaling", "pps"} {
		if !seen[required] {
			t.Fatalf("section %q missing from registry", required)
		}
	}
}

// TestSectionDocMatchesRegistry pins the package doc comment's
// "Sections:" list to the section registry, name for name and in run
// order, so the usage text can never drift from the implemented
// sections again (it had: the doc listed a stale order with later
// additions missing).
func TestSectionDocMatchesRegistry(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?s)// Sections: (.*?)\. The list`).FindSubmatch(src)
	if m == nil {
		t.Fatal(`doc comment lost its "Sections: ..." sentence`)
	}
	raw := strings.NewReplacer("\n// ", " ", "\n//", " ").Replace(string(m[1]))
	var listed []string
	for _, name := range strings.Split(raw, ",") {
		listed = append(listed, strings.TrimSpace(name))
	}
	if want := sectionNames(); !slices.Equal(listed, want) {
		t.Fatalf("doc comment lists sections\n  %v\nregistry implements\n  %v", listed, want)
	}
}

// TestWriteReportMergesBySection: writing a report over an existing
// file keeps the sections this run did not produce, replaces the ones
// it did (details and timing rows), and refuses to clobber a file it
// cannot parse.
func TestWriteReportMergesBySection(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	saved := rep
	defer func() { rep = saved }()

	rep = &benchReport{
		GOMAXPROCS: 1,
		Sections:   []sectionReport{{Name: "burst", ElapsedMS: 10}, {Name: "dd", ElapsedMS: 20}},
		Burst:      &burstReport{Updates: 1000},
		DD:         &ddReport{Updates: 250, Speedup: 5},
	}
	if err := writeReport(path); err != nil {
		t.Fatal(err)
	}
	rep = &benchReport{
		GOMAXPROCS: 2,
		Sections:   []sectionReport{{Name: "dd", ElapsedMS: 30}, {Name: "warmstart", ElapsedMS: 40}},
		DD:         &ddReport{Updates: 250, Speedup: 6},
		Warmstart:  &warmstartReport{Updates: 1000, Skipped: 900},
	}
	if err := writeReport(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchReport
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Burst == nil || got.Burst.Updates != 1000 {
		t.Fatalf("burst section lost in the merge: %+v", got.Burst)
	}
	if got.DD == nil || got.DD.Speedup != 6 {
		t.Fatalf("dd section not replaced: %+v", got.DD)
	}
	if got.Warmstart == nil || got.Warmstart.Skipped != 900 {
		t.Fatalf("warmstart section not added: %+v", got.Warmstart)
	}
	want := []sectionReport{{Name: "burst", ElapsedMS: 10}, {Name: "dd", ElapsedMS: 30}, {Name: "warmstart", ElapsedMS: 40}}
	if !slices.Equal(got.Sections, want) {
		t.Fatalf("section rows = %+v, want %+v", got.Sections, want)
	}
	if got.GOMAXPROCS != 2 {
		t.Fatalf("gomaxprocs = %d, want the latest run's 2", got.GOMAXPROCS)
	}

	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeReport(path); err == nil {
		t.Fatal("merging into an unparsable report must fail, not overwrite it")
	}
}
