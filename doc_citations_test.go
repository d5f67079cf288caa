package repro_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// citation matches the doc's name followed by a comma, a space or an
	// opening parenthesis and then a quoted heading, or by a space and a
	// section sign and a heading, on text whose line breaks and comment
	// markers are folded to spaces.
	citation = regexp.MustCompile("EXPERIMENTS\\.md`?(?:, |,? \\(| )(?:\"([^\"]+)\"|§\\s*([^|),;\n]+))")
	// fold joins a line to the next across indentation and a Go or
	// Makefile comment marker, so a quoted heading may wrap.
	fold = regexp.MustCompile(`\n[ \t]*(?://|#)?[ \t]*`)
)

// TestDocCitationsResolve: every citation of an EXPERIMENTS.md section
// in a Go file, README.md, DESIGN.md or the Makefile names a heading the
// doc has. A cited heading may stop short of the heading's last words
// ("Tracing a missed goal" names "Tracing a missed goal (event-trace
// walkthrough)"), but not mid-word. Renaming or deleting a cited section
// fails here until the citing text follows.
func TestDocCitationsResolve(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var headings []string
	fenced := false
	for _, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
		}
		if h := strings.TrimLeft(line, "#"); !fenced && h != line && strings.HasPrefix(h, " ") {
			headings = append(headings, strings.TrimSpace(h))
		}
	}
	resolves := func(cited string) bool {
		for _, h := range headings {
			if rest, ok := strings.CutPrefix(h, cited); ok && (rest == "" || rest[0] == ' ' || rest[0] == ':') {
				return true
			}
		}
		return false
	}
	found := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git and tool directories
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") && path != "README.md" && path != "DESIGN.md" && path != "Makefile" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range citation.FindAllStringSubmatch(fold.ReplaceAllString(string(data), " "), -1) {
			cited := strings.TrimSuffix(strings.TrimSpace(m[1]+m[2]), ".")
			found++
			if !resolves(cited) {
				t.Errorf("%s: cites EXPERIMENTS.md %q, which has no such heading", path, cited)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatal("no EXPERIMENTS.md citation found: the pattern no longer matches how the tree cites it")
	}
	t.Logf("%d citations resolve", found)
}
