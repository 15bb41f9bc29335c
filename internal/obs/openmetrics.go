package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// OpenMetrics 1.0 (https://openmetrics.io) support: the scrape's content
// type and the strict validator cmd/omlint and the tests run over it. The
// exposition itself is rendered by Registry.WriteOpenMetrics from the same
// snapshot as the 0.0.4 scrape and the OTLP export.

// ContentTypeOpenMetrics is the Content-Type for OpenMetrics 1.0 scrapes.
const ContentTypeOpenMetrics = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// ValidateOpenMetrics is a strict structural check over an OpenMetrics
// 1.0 text body: metadata ordering, name grammar, label escaping,
// exemplar syntax, counter `_total` conventions, cumulative histogram
// buckets ending in +Inf, and the mandatory `# EOF` terminator. It is
// the in-repo linter CI's openmetrics-lint step runs against live
// scrapes, so it rejects anything the renderer should never produce
// rather than accepting everything the spec might allow.
func ValidateOpenMetrics(data []byte) error {
	s := string(data)
	if !strings.HasSuffix(s, "# EOF\n") {
		return fmt.Errorf("openmetrics: body must end with %q", "# EOF\n")
	}
	lines := strings.Split(strings.TrimSuffix(s, "\n"), "\n")
	v := &omValidator{types: make(map[string]string)}
	for i, line := range lines {
		last := i == len(lines)-1
		if line == "# EOF" {
			if !last {
				return fmt.Errorf("openmetrics: line %d: # EOF before end of body", i+1)
			}
			return v.finishFamily(i + 1)
		}
		if err := v.line(i+1, line); err != nil {
			return err
		}
	}
	return fmt.Errorf("openmetrics: missing # EOF terminator")
}

// omValidator accumulates per-family state while scanning lines.
type omValidator struct {
	types   map[string]string // family name -> type, in declaration order
	cur     string            // current family name
	curTyp  string
	sawHelp bool
	// hist accumulates bucket samples for the current histogram family,
	// keyed by the labelset minus le, for the cumulativity check.
	hist map[string][]omBucket
	cnt  map[string]float64 // _count value per labelset, for +Inf == count
}

type omBucket struct {
	le  float64
	cum float64
}

func (v *omValidator) line(n int, line string) error {
	switch {
	case strings.HasPrefix(line, "# TYPE "):
		rest := line[len("# TYPE "):]
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			return fmt.Errorf("openmetrics: line %d: malformed TYPE line", n)
		}
		name, typ := rest[:sp], rest[sp+1:]
		if !validMetricName(name) {
			return fmt.Errorf("openmetrics: line %d: invalid family name %q", n, name)
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "info", "stateset", "unknown", "gaugehistogram":
		default:
			return fmt.Errorf("openmetrics: line %d: unknown type %q", n, typ)
		}
		if typ == "counter" && strings.HasSuffix(name, "_total") {
			return fmt.Errorf("openmetrics: line %d: counter family %q must not end in _total", n, name)
		}
		if _, dup := v.types[name]; dup {
			return fmt.Errorf("openmetrics: line %d: duplicate family %q", n, name)
		}
		if err := v.finishFamily(n); err != nil {
			return err
		}
		v.types[name] = typ
		v.cur, v.curTyp, v.sawHelp = name, typ, false
		if typ == "histogram" {
			v.hist = make(map[string][]omBucket)
			v.cnt = make(map[string]float64)
		}
		return nil
	case strings.HasPrefix(line, "# HELP "):
		rest := line[len("# HELP "):]
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			return fmt.Errorf("openmetrics: line %d: malformed HELP line", n)
		}
		name, help := rest[:sp], rest[sp+1:]
		if name != v.cur {
			return fmt.Errorf("openmetrics: line %d: HELP for %q outside its TYPE block", n, name)
		}
		if v.sawHelp {
			return fmt.Errorf("openmetrics: line %d: duplicate HELP for %q", n, name)
		}
		if err := checkHelpEscaping(help); err != nil {
			return fmt.Errorf("openmetrics: line %d: %v", n, err)
		}
		v.sawHelp = true
		return nil
	case strings.HasPrefix(line, "#"):
		return fmt.Errorf("openmetrics: line %d: stray comment %q (only TYPE/HELP/EOF allowed)", n, line)
	case line == "":
		return fmt.Errorf("openmetrics: line %d: empty line", n)
	default:
		return v.sample(n, line)
	}
}

func (v *omValidator) sample(n int, line string) error {
	if v.cur == "" {
		return fmt.Errorf("openmetrics: line %d: sample before any TYPE line", n)
	}
	name, rest, err := scanMetricName(line)
	if err != nil {
		return fmt.Errorf("openmetrics: line %d: %v", n, err)
	}
	suffix, ok := strings.CutPrefix(name, v.cur)
	if !ok {
		return fmt.Errorf("openmetrics: line %d: sample %q outside current family %q", n, name, v.cur)
	}
	switch v.curTyp {
	case "counter":
		if suffix != "_total" && suffix != "_created" {
			return fmt.Errorf("openmetrics: line %d: counter sample %q must end in _total", n, name)
		}
	case "gauge":
		if suffix != "" {
			return fmt.Errorf("openmetrics: line %d: gauge sample %q has unexpected suffix", n, name)
		}
	case "histogram":
		switch suffix {
		case "_bucket", "_sum", "_count", "_created":
		default:
			return fmt.Errorf("openmetrics: line %d: histogram sample %q has invalid suffix %q", n, name, suffix)
		}
	}
	labels, rest, err := scanLabels(rest)
	if err != nil {
		return fmt.Errorf("openmetrics: line %d: %v", n, err)
	}
	if !strings.HasPrefix(rest, " ") {
		return fmt.Errorf("openmetrics: line %d: missing space before value", n)
	}
	rest = rest[1:]
	valTok := rest
	exemplar := ""
	if idx := strings.Index(rest, " # "); idx >= 0 {
		valTok, exemplar = rest[:idx], rest[idx+3:]
	}
	valFields := strings.Split(valTok, " ")
	if len(valFields) > 2 {
		return fmt.Errorf("openmetrics: line %d: too many value tokens %q", n, valTok)
	}
	val, err := strconv.ParseFloat(valFields[0], 64)
	if err != nil {
		return fmt.Errorf("openmetrics: line %d: bad value %q", n, valFields[0])
	}
	if len(valFields) == 2 { // optional timestamp
		if _, err := strconv.ParseFloat(valFields[1], 64); err != nil {
			return fmt.Errorf("openmetrics: line %d: bad timestamp %q", n, valFields[1])
		}
	}
	if exemplar != "" {
		if v.curTyp != "histogram" && v.curTyp != "counter" {
			return fmt.Errorf("openmetrics: line %d: exemplar on %s sample", n, v.curTyp)
		}
		if v.curTyp == "histogram" && !strings.HasSuffix(name, "_bucket") {
			return fmt.Errorf("openmetrics: line %d: histogram exemplar outside _bucket sample", n)
		}
		if err := checkExemplar(exemplar); err != nil {
			return fmt.Errorf("openmetrics: line %d: %v", n, err)
		}
	}
	if v.curTyp == "histogram" {
		sig, le, hasLE, err := splitLE(labels)
		if err != nil {
			return fmt.Errorf("openmetrics: line %d: %v", n, err)
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			if !hasLE {
				return fmt.Errorf("openmetrics: line %d: _bucket sample missing le label", n)
			}
			v.hist[sig] = append(v.hist[sig], omBucket{le: le, cum: val})
		case strings.HasSuffix(name, "_count"):
			if hasLE {
				return fmt.Errorf("openmetrics: line %d: le label on _count sample", n)
			}
			v.cnt[sig] = val
		}
	}
	return nil
}

// finishFamily runs the end-of-family checks for the histogram family
// being closed (cumulative ascending buckets, +Inf last and equal to
// _count).
func (v *omValidator) finishFamily(n int) error {
	if v.curTyp != "histogram" {
		return nil
	}
	for sig, buckets := range v.hist {
		for i := 1; i < len(buckets); i++ {
			if !(buckets[i].le > buckets[i-1].le) {
				return fmt.Errorf("openmetrics: line %d: family %q: le bounds not ascending for labelset {%s}", n, v.cur, sig)
			}
			if buckets[i].cum < buckets[i-1].cum {
				return fmt.Errorf("openmetrics: line %d: family %q: bucket counts not cumulative for labelset {%s}", n, v.cur, sig)
			}
		}
		if len(buckets) == 0 || !math.IsInf(buckets[len(buckets)-1].le, 1) {
			return fmt.Errorf("openmetrics: line %d: family %q: missing +Inf bucket for labelset {%s}", n, v.cur, sig)
		}
		if cnt, ok := v.cnt[sig]; ok && cnt != buckets[len(buckets)-1].cum {
			return fmt.Errorf("openmetrics: line %d: family %q: _count %v != +Inf bucket %v for labelset {%s}", n, v.cur, cnt, buckets[len(buckets)-1].cum, sig)
		}
	}
	v.hist, v.cnt = nil, nil
	return nil
}

// scanMetricName splits a sample line into its metric name and the rest.
func scanMetricName(line string) (name, rest string, err error) {
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' {
		i++
	}
	name = line[:i]
	if !validMetricName(name) {
		return "", "", fmt.Errorf("invalid metric name %q", name)
	}
	return name, line[i:], nil
}

// scanLabels consumes an optional `{k="v",...}` block, returning the
// parsed pairs in order and the unconsumed tail.
func scanLabels(s string) (labels []omLabel, rest string, err error) {
	if !strings.HasPrefix(s, "{") {
		return nil, s, nil
	}
	i := 1
	seen := map[string]bool{}
	for {
		if i >= len(s) {
			return nil, "", fmt.Errorf("unterminated label block")
		}
		if s[i] == '}' {
			return labels, s[i+1:], nil
		}
		j := i
		for j < len(s) && s[j] != '=' {
			j++
		}
		if j >= len(s) {
			return nil, "", fmt.Errorf("label missing '='")
		}
		key := s[i:j]
		if !validLabelName(key) {
			return nil, "", fmt.Errorf("invalid label name %q", key)
		}
		if seen[key] {
			return nil, "", fmt.Errorf("duplicate label %q", key)
		}
		seen[key] = true
		if j+1 >= len(s) || s[j+1] != '"' {
			return nil, "", fmt.Errorf("label %q value not quoted", key)
		}
		val, next, err := scanQuoted(s[j+1:])
		if err != nil {
			return nil, "", fmt.Errorf("label %q: %v", key, err)
		}
		labels = append(labels, omLabel{key, val})
		i = j + 1 + next
		if i < len(s) && s[i] == ',' {
			i++
			if i < len(s) && s[i] == '}' {
				return nil, "", fmt.Errorf("trailing comma in label block")
			}
		} else if i < len(s) && s[i] != '}' {
			return nil, "", fmt.Errorf("expected ',' or '}' after label %q", key)
		}
	}
}

type omLabel struct{ key, val string }

// scanQuoted consumes a double-quoted string starting at s[0]=='"',
// enforcing that only \\ \" \n escapes appear, and returns the decoded
// value plus the number of bytes consumed.
func scanQuoted(s string) (val string, consumed int, err error) {
	if len(s) == 0 || s[0] != '"' {
		return "", 0, fmt.Errorf("missing opening quote")
	}
	var sb strings.Builder
	i := 1
	for i < len(s) {
		switch s[i] {
		case '"':
			return sb.String(), i + 1, nil
		case '\\':
			if i+1 >= len(s) {
				return "", 0, fmt.Errorf("dangling backslash")
			}
			switch s[i+1] {
			case '\\':
				sb.WriteByte('\\')
			case '"':
				sb.WriteByte('"')
			case 'n':
				sb.WriteByte('\n')
			default:
				return "", 0, fmt.Errorf("invalid escape \\%c", s[i+1])
			}
			i += 2
		default:
			sb.WriteByte(s[i])
			i++
		}
	}
	return "", 0, fmt.Errorf("unterminated quoted string")
}

// checkExemplar validates the ` # {labels} value [ts]` tail after the
// `# ` marker has been stripped.
func checkExemplar(s string) error {
	if !strings.HasPrefix(s, "{") {
		return fmt.Errorf("exemplar missing label block")
	}
	labels, rest, err := scanLabels(s)
	if err != nil {
		return fmt.Errorf("exemplar: %v", err)
	}
	runeLen := 0
	for _, l := range labels {
		runeLen += len([]rune(l.key)) + len([]rune(l.val))
	}
	if runeLen > 128 {
		return fmt.Errorf("exemplar labelset exceeds 128 runes")
	}
	if !strings.HasPrefix(rest, " ") {
		return fmt.Errorf("exemplar missing value")
	}
	fields := strings.Split(rest[1:], " ")
	if len(fields) > 2 {
		return fmt.Errorf("exemplar has too many tokens")
	}
	for _, f := range fields {
		if _, err := strconv.ParseFloat(f, 64); err != nil {
			return fmt.Errorf("exemplar: bad number %q", f)
		}
	}
	return nil
}

// checkHelpEscaping rejects raw control escapes the renderer would never
// emit: only \\ and \n are legal in HELP text.
func checkHelpEscaping(s string) error {
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' {
			if i+1 >= len(s) || (s[i+1] != '\\' && s[i+1] != 'n') {
				return fmt.Errorf("invalid escape in HELP text")
			}
			i++
		}
	}
	return nil
}

// splitLE pulls the le label out of a labelset, returning the remaining
// labels as a canonical signature string for grouping.
func splitLE(labels []omLabel) (sig string, le float64, hasLE bool, err error) {
	var rest []string
	for _, l := range labels {
		if l.key == "le" {
			hasLE = true
			switch l.val {
			case "+Inf":
				le = math.Inf(1)
			default:
				le, err = strconv.ParseFloat(l.val, 64)
				if err != nil {
					return "", 0, false, fmt.Errorf("bad le value %q", l.val)
				}
			}
			continue
		}
		rest = append(rest, l.key+"="+l.val)
	}
	sort.Strings(rest)
	return strings.Join(rest, ","), le, hasLE, nil
}

// validMetricName reports whether s matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// validLabelName reports whether s matches [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
