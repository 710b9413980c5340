package lint

import (
	"go/token"
	"strings"
)

// directivePrefix introduces a lint-acknowledgement comment:
//
//	//pushpull:lint-allow <analyzer> <reason>
//
// The reason is mandatory: an allow without a recorded justification is
// itself a finding. A directive suppresses findings of the named
// analyzer on its own line (trailing-comment form) and on the first
// line after its comment group (stacked standalone form), so several
// directives for different analyzers may sit above one statement. A
// directive that suppresses nothing is a finding too: once its site is
// fixed or moved, it would silently excuse whatever lands there next.
const directivePrefix = "pushpull:lint-allow"

// directive is one parsed lint-allow comment.
type directive struct {
	analyzer string
	pos      token.Pos
	file     string
	// lines this directive suppresses findings on.
	targets []int
	// used records that the directive suppressed at least one finding.
	used bool
}

// collectDirectives parses every lint-allow directive in the program,
// in source order, and reports malformed ones (missing analyzer,
// unknown analyzer, or empty reason) as findings in their own right.
func collectDirectives(prog *Program) ([]*directive, []Finding) {
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	var dirs []*directive
	var problems []Finding
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				groupEnd := prog.Fset.Position(cg.End()).Line
				for _, c := range cg.List {
					text, ok := directiveText(c.Text)
					if !ok {
						continue
					}
					file, line, _ := prog.posOf(c.Pos())
					fields := strings.Fields(text)
					if len(fields) == 0 || !known[fields[0]] {
						problems = append(problems, prog.finding("directive", c.Pos(),
							"malformed %s directive: first word must be one of %s",
							directivePrefix, strings.Join(AnalyzerNames(), "|")))
						continue
					}
					if strings.TrimSpace(strings.TrimPrefix(text, fields[0])) == "" {
						problems = append(problems, prog.finding("directive", c.Pos(),
							"%s %s directive needs a non-empty reason", directivePrefix, fields[0]))
						continue
					}
					dirs = append(dirs, &directive{
						analyzer: fields[0],
						pos:      c.Pos(),
						file:     file,
						targets:  []int{line, groupEnd + 1},
					})
				}
			}
		}
	}
	return dirs, problems
}

// directiveText extracts the payload after the directive prefix, or
// reports that the comment is not a directive.
func directiveText(comment string) (string, bool) {
	body, ok := strings.CutPrefix(comment, "//")
	if !ok {
		return "", false // block comments are not directive carriers
	}
	body = strings.TrimPrefix(body, " ")
	rest, ok := strings.CutPrefix(body, directivePrefix)
	if !ok {
		return "", false
	}
	return strings.TrimSpace(rest), true
}

// suppress drops findings acknowledged by a matching directive and marks
// each such directive used.
func suppress(fs []Finding, dirs []*directive) []Finding {
	if len(dirs) == 0 {
		return fs
	}
	// byFileLine: file -> line -> directives targeting that line.
	byFileLine := make(map[string]map[int][]*directive)
	for _, d := range dirs {
		if byFileLine[d.file] == nil {
			byFileLine[d.file] = make(map[int][]*directive)
		}
		for _, t := range d.targets {
			byFileLine[d.file][t] = append(byFileLine[d.file][t], d)
		}
	}
	var kept []Finding
	for _, f := range fs {
		matched := false
		for _, d := range byFileLine[f.File][f.Line] {
			if d.analyzer == f.Analyzer {
				d.used = true
				matched = true
			}
		}
		if !matched {
			kept = append(kept, f)
		}
	}
	return kept
}

// stale reports, in source order, the directives of analyzers that ran
// which suppressed no finding.
func stale(prog *Program, dirs []*directive, ran map[string]bool) []Finding {
	var fs []Finding
	for _, d := range dirs {
		if ran[d.analyzer] && !d.used {
			fs = append(fs, prog.finding("directive", d.pos,
				"%s %s directive suppresses no finding; remove it", directivePrefix, d.analyzer))
		}
	}
	return fs
}
