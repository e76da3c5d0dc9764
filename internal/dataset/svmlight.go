package dataset

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sparse"
	"repro/internal/vecmath"
)

// ReadXC parses the Extreme Classification Repository's SVMLight-style
// format:
//
//	header:  "<numExamples> <numFeatures> <numLabels>"
//	line:    "l1,l2,...  idx:val idx:val ..."
//
// Lines with no labels start with a space. Feature indices are 0-based as
// distributed by the repository.
func ReadXC(r io.Reader) (examples []Example, numFeatures, numLabels int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		return nil, 0, 0, fmt.Errorf("dataset: empty XC stream: %w", sc.Err())
	}
	header := strings.Fields(sc.Text())
	if len(header) != 3 {
		return nil, 0, 0, fmt.Errorf("dataset: bad XC header %q", sc.Text())
	}
	numExamples, err := strconv.Atoi(header[0])
	if err != nil {
		return nil, 0, 0, fmt.Errorf("dataset: bad example count: %w", err)
	}
	if numFeatures, err = strconv.Atoi(header[1]); err != nil {
		return nil, 0, 0, fmt.Errorf("dataset: bad feature count: %w", err)
	}
	if numLabels, err = strconv.Atoi(header[2]); err != nil {
		return nil, 0, 0, fmt.Errorf("dataset: bad label count: %w", err)
	}
	if min(numExamples, numFeatures, numLabels) < 0 || max(numFeatures, numLabels) > math.MaxInt32 {
		return nil, 0, 0, fmt.Errorf("dataset: XC header %q: counts must be in [0, 2^31)", sc.Text())
	}
	// The declared count only sizes the first allocation; append grows
	// past the cap for a file that really holds more.
	examples = make([]Example, 0, min(numExamples, 1<<16))
	lineNo := 1
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		ex, err := parseXCLine(line, numFeatures, numLabels)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("dataset: line %d: %w", lineNo, err)
		}
		examples = append(examples, ex)
	}
	if err := sc.Err(); err != nil {
		return nil, 0, 0, fmt.Errorf("dataset: reading XC stream: %w", err)
	}
	return examples, numFeatures, numLabels, nil
}

func parseXCLine(line string, numFeatures, numLabels int) (Example, error) {
	var ex Example
	fields := strings.Fields(line)
	start := 0
	// The label field contains no ':'; it may be absent entirely when the
	// line starts with whitespace.
	if len(fields) > 0 && !strings.Contains(fields[0], ":") {
		start = 1
		for _, tok := range strings.Split(fields[0], ",") {
			l, err := strconv.Atoi(tok)
			if err != nil {
				return ex, fmt.Errorf("bad label %q: %w", tok, err)
			}
			if l < 0 || l >= numLabels {
				return ex, fmt.Errorf("label %d out of range [0,%d)", l, numLabels)
			}
			ex.Labels = append(ex.Labels, int32(l))
		}
		sort.Slice(ex.Labels, func(a, b int) bool { return ex.Labels[a] < ex.Labels[b] })
		ex.Labels = dedup32(ex.Labels)
	}
	idx := make([]int32, 0, len(fields)-start)
	val := make([]float32, 0, len(fields)-start)
	for _, tok := range fields[start:] {
		colon := strings.IndexByte(tok, ':')
		if colon < 0 {
			return ex, fmt.Errorf("bad feature token %q", tok)
		}
		i, err := strconv.Atoi(tok[:colon])
		if err != nil {
			return ex, fmt.Errorf("bad feature index in %q: %w", tok, err)
		}
		if i < 0 || i >= numFeatures {
			return ex, fmt.Errorf("feature %d out of range [0,%d)", i, numFeatures)
		}
		v, err := strconv.ParseFloat(tok[colon+1:], 32)
		if err != nil {
			return ex, fmt.Errorf("bad feature value in %q: %w", tok, err)
		}
		idx = append(idx, int32(i))
		val = append(val, float32(v))
	}
	vec, err := sparse.New(numFeatures, idx, val)
	if err != nil {
		return ex, err
	}
	if !vecmath.AllFinite(vec.Val) {
		return ex, fmt.Errorf("feature values (summed per index) must be finite")
	}
	ex.Features = vec
	return ex, nil
}

// WriteXC writes examples in the XC format read by ReadXC.
func WriteXC(w io.Writer, examples []Example, numFeatures, numLabels int) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", len(examples), numFeatures, numLabels); err != nil {
		return err
	}
	for n := range examples {
		ex := &examples[n]
		for j, l := range ex.Labels {
			if j > 0 {
				if err := bw.WriteByte(','); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.Itoa(int(l))); err != nil {
				return err
			}
		}
		for j, i := range ex.Features.Idx {
			if _, err := fmt.Fprintf(bw, " %d:%g", i, ex.Features.Val[j]); err != nil {
				return err
			}
			_ = j
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadXCFile reads one XC-format file into a Dataset with an empty test
// split.
func LoadXCFile(name, path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	exs, nf, nl, err := ReadXC(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &Dataset{Name: name, InputDim: nf, NumClasses: nl, Train: exs}, nil
}

func dedup32(a []int32) []int32 {
	out := a[:0]
	for i, v := range a {
		if i == 0 || v != a[i-1] {
			out = append(out, v)
		}
	}
	return out
}
