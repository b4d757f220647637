package analysis

import (
	"strconv"
	"strings"
)

// ignorePrefix introduces a per-line suppression:
//
//	//declint:ignore <check> <reason>
//
// The reason is mandatory — a suppression documents *why* an invariant is
// intentionally broken, not just that it is. A suppression applies to
// findings on its own line (trailing comment) and on the line directly
// below (comment-above style).
const ignorePrefix = "//declint:ignore"

// suppressions maps file -> line -> suppressed check name -> waiver reason.
type suppressions map[string]map[int]map[string]string

// collectSuppressions scans every comment in the package for declint
// directives. Malformed directives (unknown check, missing reason) are
// themselves findings, so a typo cannot silently disable enforcement.
func collectSuppressions(pkg *Package, known map[string]bool) (suppressions, []Finding) {
	sup := suppressions{}
	var bad []Finding
	for _, f := range pkg.Files {
		for _, cg := range f.Ast.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, ignorePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimPrefix(text, ignorePrefix)
				if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
					continue // e.g. //declint:ignored — not our directive
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					bad = append(bad, Finding{
						Check: "declint", Pos: pos,
						Msg: "suppression names no check: want //declint:ignore <check> <reason>",
					})
					continue
				}
				check := fields[0]
				if !known[check] {
					bad = append(bad, Finding{
						Check: "declint", Pos: pos,
						Msg: "suppression names unknown check " + strconv.Quote(check),
					})
					continue
				}
				if len(fields) < 2 {
					bad = append(bad, Finding{
						Check: "declint", Pos: pos,
						Msg: "suppression for " + check + " has no reason: a reason is required",
					})
					continue
				}
				byLine := sup[pos.Filename]
				if byLine == nil {
					byLine = map[int]map[string]string{}
					sup[pos.Filename] = byLine
				}
				reason := strings.Join(fields[1:], " ")
				for _, line := range []int{pos.Line, pos.Line + 1} {
					if byLine[line] == nil {
						byLine[line] = map[string]string{}
					}
					byLine[line][check] = reason
				}
			}
		}
	}
	return sup, bad
}

// suppressed reports whether a finding is covered by an ignore directive,
// and with which documented reason.
func (s suppressions) suppressed(f Finding) (bool, string) {
	byLine, ok := s[f.Pos.Filename]
	if !ok {
		return false, ""
	}
	reason, ok := byLine[f.Pos.Line][f.Check]
	return ok, reason
}
