package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// checkedDocs are the documents whose code the doc rule holds to the
// tree. EXPERIMENTS.md's historySections name removed code on purpose,
// so the rule skips them.
var (
	checkedDocs     = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}
	historySections = map[string]bool{"Deletion records": true}
)

// treeTexts reads every file the doc rules look at, by path: each Go
// file of the module, the Makefile and checkedDocs.
func treeTexts(t *testing.T) map[string]string {
	t.Helper()
	paths := append([]string{"Makefile"}, checkedDocs...)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git and tool directories
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	texts := make(map[string]string, len(paths))
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		texts[p] = string(b)
	}
	return texts
}

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
// in a Go file, the Makefile or a checked doc names a heading the doc
// has. A cited heading may stop short of the heading's last words
// ("Tracing a missed goal" names "Tracing a missed goal (event-trace
// walkthrough)"), but not mid-word. Renaming or deleting a cited section
// fails here until the citing text follows.
func TestDocCitationsResolve(t *testing.T) {
	texts := treeTexts(t)
	var headings []string
	fenced := false
	for _, line := range strings.Split(texts["EXPERIMENTS.md"], "\n") {
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
	for path, text := range texts {
		for _, m := range citation.FindAllStringSubmatch(fold.ReplaceAllString(text, " "), -1) {
			cited := strings.TrimSuffix(strings.TrimSpace(m[1]+m[2]), ".")
			found++
			if !resolves(cited) {
				t.Errorf("%s: cites EXPERIMENTS.md %q, which has no such heading", path, cited)
			}
		}
	}
	if found == 0 {
		t.Fatal("no EXPERIMENTS.md citation found: the pattern no longer matches how the tree cites it")
	}
	t.Logf("%d citations resolve", found)
}

// snippet is one piece of code in a doc: an inline code span (line
// breaks folded to spaces) or a fenced line (a line ending in a
// backslash joined to the next, a shell comment cut off).
type snippet struct {
	line int
	text string
}

var (
	codeSpan     = regexp.MustCompile("`([^`]+)`")
	shellComment = regexp.MustCompile(`(?:^|\s)#.*`)
)

// snippets returns the code of a markdown doc, outside its history
// sections.
func snippets(doc string) []snippet {
	lines := strings.Split(doc, "\n")
	var out []snippet
	fenced, history := false, false
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		if strings.HasPrefix(strings.TrimLeft(line, " "), "```") {
			fenced = !fenced
			lines[i] = ""
			continue
		}
		if h, ok := strings.CutPrefix(line, "## "); ok && !fenced {
			history = historySections[strings.TrimSpace(h)]
		}
		if history {
			lines[i] = ""
			continue
		}
		if !fenced {
			continue
		}
		n := i
		for strings.HasSuffix(line, `\`) && i+1 < len(lines) {
			i++
			line = strings.TrimSuffix(line, `\`) + " " + lines[i]
			lines[i] = ""
		}
		lines[n] = ""
		out = append(out, snippet{n + 1, shellComment.ReplaceAllString(line, "")})
	}
	prose := strings.Join(lines, "\n")
	for _, loc := range codeSpan.FindAllStringSubmatchIndex(prose, -1) {
		line := 1 + strings.Count(prose[:loc[0]], "\n")
		out = append(out, snippet{line, strings.ReplaceAll(prose[loc[2]:loc[3]], "\n", " ")})
	}
	return out
}

var (
	// qualified matches pkg.Name, pkg.T.M and pkg.(*T).M, not preceded by
	// a word character, a dot or a slash.
	qualified = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.(?:\(\*(\w+)\)\.(\w+)|(\w+)(?:\.(\w+))?)`)
	// fileExt are the suffixes that make pkg.ext a file name, not a
	// Go name.
	fileExt = map[string]bool{"go": true, "md": true, "json": true, "jsonl": true, "csv": true, "golden": true, "digest": true, "sh": true, "jnl": true, "tmp": true, "prof": true, "mem": true, "test": true}
	// metricName matches the benchmark's per-layer metric names, which
	// are named after a package (core.stats_digest_changed).
	metricName = regexp.MustCompile(`^[a-z0-9]+_[a-z0-9_]+$`)
	// makeCall matches make and the target it names.
	makeCall = regexp.MustCompile(`(?:^|[\s(])make\s+([a-z][\w-]*)`)
	// repoPath matches a path under one of the tree's top directories.
	repoPath = regexp.MustCompile(`(?:^|[\s(=])(?:\./)?((?:internal|cmd|testdata|results|scripts|benchmark)/[^\s` + "`" + `'"),;:]*)`)
	// cmdFlag matches a command-line flag and its name.
	cmdFlag     = regexp.MustCompile(`^--?([A-Za-z][\w.-]*)(?:=.*)?$`)
	placeholder = regexp.MustCompile(`<[^>]*>`)
)

// TestDocsDescribeTheTree: the code in README.md, DESIGN.md, the verify
// skill and EXPERIMENTS.md (outside its history sections) names what
// the tree has.
//   - A name qualified by a package of internal/ resolves: pkg.Name is
//     declared at package scope, pkg.T.M and pkg.(*T).M are a field or
//     method of T. Names of other packages (json.Marshal) are not
//     checked.
//   - A -flag after a binary (qosd, ./cmd/qosd, ./benchmark) on a
//     command line is a flag that binary defines.
//   - The -flag in the first cell of a row of a table headed | Flag | is
//     a flag of each binary the row's Tools cell names ("all three" is
//     gpusim, qossim and sweep) or, in a table without a Tools column,
//     of the binary its section's heading names.
//   - make X names a Makefile target.
//   - A path under internal/, cmd/, testdata/, results/, scripts/ or
//     benchmark/ exists (<name> placeholders and * match anything), or
//     is one .gitignore lists as an output.
//
// Every -run, -bench and -fuzz pattern of the Makefile selects
// something: each |-separated alternative matches a test, benchmark or
// fuzz function of the package its line tests.
func TestDocsDescribeTheTree(t *testing.T) {
	m := checkModule(t)
	pkgs := make(map[string]*types.Package)
	for _, p := range m.internal {
		pkgs[p.Name()] = p
	}
	flags := binaryFlags(t)
	texts := treeTexts(t)
	targets, ignored := makeTargets(texts["Makefile"]), gitIgnored(t)

	for _, doc := range checkedDocs {
		checkFlagTables(t, doc, texts[doc], flags)
		for _, s := range snippets(texts[doc]) {
			where := doc + ":" + strconv.Itoa(s.line)
			for _, q := range qualified.FindAllStringSubmatch(s.text, -1) {
				pkg := pkgs[q[1]]
				if pkg == nil || q[5] == "" && (fileExt[q[4]] || metricName.MatchString(q[4])) {
					continue
				}
				if why := resolve(pkg, q[2], q[3], q[4], q[5]); why != "" {
					t.Errorf("%s: `%s`: %s", where, strings.TrimLeft(q[0], " \t("), why)
				}
			}
			for _, seg := range strings.FieldsFunc(s.text, func(r rune) bool { return strings.ContainsRune("|;&><", r) }) {
				checkFlags(t, where, seg, flags)
			}
			for _, mc := range makeCall.FindAllStringSubmatch(s.text, -1) {
				if !targets[mc[1]] {
					t.Errorf("%s: `make %s`: the Makefile has no target %s", where, mc[1], mc[1])
				}
			}
			for _, pm := range repoPath.FindAllStringSubmatch(s.text, -1) {
				path := strings.TrimRight(pm[1], ".")
				if !pathExists(path) && !ignored(path) {
					t.Errorf("%s: `%s`: no such path", where, path)
				}
			}
		}
	}
	checkPackageRows(t, "DESIGN.md", texts["DESIGN.md"], m.pkgs)
	checkSelectors(t, texts["Makefile"])
}

var (
	// packageRow matches a table row whose first cell opens with a
	// backticked internal/ package path, and the path.
	packageRow = regexp.MustCompile("^\\|\\s*`(internal/[\\w/]+)`")
	// typeMember matches a code span that is T.M or T.M(…) with an
	// upper-case T.
	typeMember = regexp.MustCompile(`^([A-Z]\w*)\.(\w+)(?:\(.*\))?$`)
)

// checkPackageRows holds the unqualified names of doc's package rows to
// their package: in a table row whose first cell is a backticked
// internal/ path, every backticked T.M or T.M() resolves in that package.
func checkPackageRows(t *testing.T, doc, text string, pkgs map[string]*types.Package) {
	t.Helper()
	rows := 0
	for i, line := range strings.Split(text, "\n") {
		m := packageRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		where := doc + ":" + strconv.Itoa(i+1)
		pkg := pkgs["repro/"+m[1]]
		if pkg == nil {
			t.Errorf("%s: `%s`: no such package", where, m[1])
			continue
		}
		rows++
		for _, span := range codeSpan.FindAllStringSubmatch(line, -1) {
			if tm := typeMember.FindStringSubmatch(span[1]); tm != nil {
				if why := resolve(pkg, "", "", tm[1], tm[2]); why != "" {
					t.Errorf("%s: `%s` in the %s row: %s", where, span[1], m[1], why)
				}
			}
		}
	}
	if rows == 0 {
		t.Fatalf("%s: no package row found: the pattern no longer matches how the doc lists packages", doc)
	}
}

// resolve says why a qualified name does not resolve in pkg, or "".
// recv and method come from pkg.(*T).M, name and sel from pkg.Name and
// pkg.T.M.
func resolve(pkg *types.Package, recv, method, name, sel string) string {
	if recv != "" {
		tn, ok := pkg.Scope().Lookup(recv).(*types.TypeName)
		if !ok {
			return "package " + pkg.Name() + " declares no type " + recv
		}
		if obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), false, pkg, method); obj == nil {
			return "*" + recv + " has no field or method " + method
		}
		return ""
	}
	obj := pkg.Scope().Lookup(name)
	if obj == nil {
		return "package " + pkg.Name() + " declares no " + name + " at package scope"
	}
	if sel == "" {
		return ""
	}
	if f, _, _ := types.LookupFieldOrMethod(obj.Type(), true, pkg, sel); f == nil {
		return name + " has no field or method " + sel
	}
	return ""
}

// checkFlags holds the flags after the first binary in seg to the ones
// it defines.
func checkFlags(t *testing.T, where, seg string, flags map[string]map[string]bool) {
	t.Helper()
	fields := strings.Fields(seg)
	for i, f := range fields {
		defined, ok := flags[f]
		if !ok {
			continue
		}
		for _, arg := range fields[i+1:] {
			if fm := cmdFlag.FindStringSubmatch(arg); fm != nil && !defined[fm[1]] {
				t.Errorf("%s: `%s %s`: %s defines no flag -%s", where, f, arg, f, fm[1])
			}
		}
		return
	}
}

// checkFlagTables holds each row of doc's | Flag | tables, outside its
// history sections, to the flags of the binaries the row documents.
func checkFlagTables(t *testing.T, doc, text string, flags map[string]map[string]bool) {
	t.Helper()
	span := regexp.MustCompile("`([^`]*)`")
	binaries := func(cell string) (out []string) {
		if strings.Contains(cell, "all three") {
			out = []string{"gpusim", "qossim", "sweep"}
		}
		for _, m := range span.FindAllStringSubmatch(cell, -1) {
			if flags[m[1]] != nil {
				out = append(out, m[1])
			}
		}
		return out
	}
	var heading string
	history, table, tools, about := false, false, -1, []string(nil)
	for i, line := range strings.Split(text, "\n") {
		if h, ok := strings.CutPrefix(line, "## "); ok {
			heading, history = h, historySections[strings.TrimSpace(h)]
		}
		if history || !strings.HasPrefix(line, "|") {
			table = false
			continue
		}
		where := doc + ":" + strconv.Itoa(i+1)
		cells := strings.Split(strings.Trim(strings.ReplaceAll(line, `\|`, ""), "|"), "|")
		for c := range cells {
			cells[c] = strings.TrimSpace(cells[c])
		}
		switch {
		case !table && cells[0] == "Flag": // a header
			table, tools = true, slices.Index(cells, "Tools")
			if about = binaries(heading); tools < 0 && len(about) == 0 {
				t.Errorf("%s: a | Flag | table without a Tools column under a heading that names no binary", where)
			}
			continue
		case !table || strings.Trim(cells[0], "-:") == "": // another table, or the rule below a header
			continue
		}
		var name string
		if m := span.FindStringSubmatch(cells[0]); m != nil && len(strings.Fields(m[1])) > 0 {
			if fm := cmdFlag.FindStringSubmatch(strings.Fields(m[1])[0]); fm != nil {
				name = fm[1]
			}
		}
		if name == "" {
			t.Errorf("%s: a | Flag | row whose first cell holds no `-flag`", where)
			continue
		}
		of := about
		if tools >= 0 && tools < len(cells) {
			if of = binaries(cells[tools]); len(of) == 0 {
				t.Errorf("%s: -%s: the Tools cell names no binary", where, name)
			}
		}
		for _, b := range of {
			if !flags[b][name] {
				t.Errorf("%s: | -%s |: %s defines no flag -%s", where, name, b, name)
			}
		}
	}
}

// binaryFlags maps each way a doc spells a binary (qosd, cmd/qosd,
// ./cmd/qosd; ./benchmark) to the flags its main.go defines, in either
// the flag.StringVar(&v, "x", …) or the flag.String("x", …) form.
func binaryFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	mains = append(mains, "benchmark/main.go")
	flags := make(map[string]map[string]bool)
	fset := token.NewFileSet()
	for _, path := range mains {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		defined := make(map[string]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "flag" {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, _ := strconv.Unquote(lit.Value)
					defined[name] = true
					break
				}
			}
			return true
		})
		if len(defined) == 0 {
			t.Fatalf("%s: no flag definition found: the pattern no longer matches how the binary defines flags", path)
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		flags["./"+dir] = defined
		if name, ok := strings.CutPrefix(dir, "cmd/"); ok {
			flags[dir], flags[name] = defined, defined
		}
	}
	return flags
}

// makeTargets lists the Makefile's rule targets.
func makeTargets(makefile string) map[string]bool {
	targets := make(map[string]bool)
	for _, m := range regexp.MustCompile(`(?m)^([A-Za-z0-9][\w-]*):(?:[^=]|$)`).FindAllStringSubmatch(makefile, -1) {
		targets[m[1]] = true
	}
	return targets
}

// pathExists reports whether path, with <name> placeholders read as *,
// names or matches at least one file or directory.
func pathExists(path string) bool {
	path = placeholder.ReplaceAllString(path, "*")
	matches, err := filepath.Glob(strings.TrimSuffix(path, "/"))
	return err == nil && len(matches) > 0
}

// gitIgnored returns a test for whether a path lies under one of the
// rooted patterns (/dir/, /file) of the root .gitignore: what building
// and running leave behind, which a checkout does not hold.
func gitIgnored(t *testing.T) func(string) bool {
	t.Helper()
	b, err := os.ReadFile(".gitignore")
	if err != nil {
		t.Fatal(err)
	}
	var rooted []string
	for _, line := range strings.Split(string(b), "\n") {
		if p, ok := strings.CutPrefix(strings.TrimSpace(line), "/"); ok {
			rooted = append(rooted, strings.TrimSuffix(p, "/"))
		}
	}
	return func(path string) bool {
		for _, p := range rooted {
			if ok, _ := filepath.Match(p, path); ok || strings.HasPrefix(path, p+"/") {
				return true
			}
		}
		return false
	}
}

// checkSelectors holds every -run, -bench and -fuzz pattern of a go
// test line in the Makefile to the functions of the packages it tests.
func checkSelectors(t *testing.T, makefile string) {
	t.Helper()
	selected := 0
	for _, line := range strings.Split(strings.ReplaceAll(makefile, "\\\n", " "), "\n") {
		fields := shellFields(strings.ReplaceAll(line, "$$", "$"))
		start := -1
		for i := 1; i < len(fields); i++ {
			if fields[i] == "test" && (fields[i-1] == "$(GO)" || fields[i-1] == "go") {
				start = i + 1
				break
			}
		}
		if start < 0 {
			continue
		}
		var dirs []string
		patterns := make(map[string]string) // selector flag -> pattern
		for i := start; i < len(fields); i++ {
			f := fields[i]
			if strings.HasPrefix(f, ".") {
				dirs = append(dirs, f)
				continue
			}
			for _, sel := range []string{"run", "bench", "fuzz"} {
				if v, ok := strings.CutPrefix(f, "-"+sel+"="); ok {
					patterns[sel] = v
				} else if f == "-"+sel && i+1 < len(fields) {
					i++
					patterns[sel] = fields[i]
				}
			}
		}
		if len(patterns) == 0 {
			continue
		}
		var funcs []string
		for _, dir := range dirs {
			funcs = append(funcs, testFuncs(t, dir)...)
		}
		for sel, pattern := range patterns {
			prefixes := selectable[sel]
			for _, alt := range strings.Split(pattern, "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("Makefile: -%s %q: %v", sel, alt, err)
					continue
				}
				if re.MatchString("") {
					continue // '^$': selects nothing on purpose
				}
				if !selectsAny(re, funcs, prefixes) {
					t.Errorf("Makefile: -%s %s selects no function in %s", sel, alt, strings.Join(dirs, " "))
				}
				selected++
			}
		}
	}
	if selected == 0 {
		t.Fatal("Makefile: no test selector found: the pattern no longer matches how the Makefile selects tests")
	}
}

// selectable are the function name prefixes each selector flag reaches.
var selectable = map[string][]string{"run": {"Test", "Fuzz", "Example"}, "bench": {"Benchmark"}, "fuzz": {"Fuzz"}}

func selectsAny(re *regexp.Regexp, funcs, prefixes []string) bool {
	for _, fn := range funcs {
		for _, p := range prefixes {
			if strings.HasPrefix(fn, p) && re.MatchString(fn) {
				return true
			}
		}
	}
	return false
}

// testFuncs lists the top-level functions of the test files in dir.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names
}

// shellFields splits a recipe line at blanks outside single quotes and
// drops the quotes.
func shellFields(line string) []string {
	var fields []string
	var cur strings.Builder
	quoted, inField := false, false
	for _, r := range line {
		switch {
		case r == '\'':
			quoted, inField = !quoted, true
		case !quoted && (r == ' ' || r == '\t'):
			if inField {
				fields = append(fields, cur.String())
				cur.Reset()
				inField = false
			}
		default:
			cur.WriteRune(r)
			inField = true
		}
	}
	if inField {
		fields = append(fields, cur.String())
	}
	return fields
}
