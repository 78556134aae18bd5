// Package graphio reads and writes graphs in an adjacency-list text
// format compatible with Giraph's common text input formats:
//
//	# comment
//	<vertexID> <nbr>[:<weight>] <nbr>[:<weight>] ...
//
// A vertex with no out-edges is a line with just its ID. Weights are
// float64 and optional per edge; WriteAdjacency emits them whenever an
// edge carries a DoubleValue. The GUI's offline graph builder exports
// this format for end-to-end tests.
package graphio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"

	"graft/internal/pregel"
)

// ReadAdjacency parses an adjacency-list graph. Vertices referenced
// only as targets are created with nil values. Lines are split and
// their IDs parsed as bytes into ID, edge and weight columns, from which
// pregel.NewGraphFromEdges builds the graph in one pass; fields, IDs,
// comments and error texts are those of strings.Fields and
// strconv.ParseInt over each line.
func ReadAdjacency(r io.Reader) (*pregel.Graph, error) {
	var ids, src, dst []pregel.VertexID
	var vals []pregel.Value // nil until the first weighted edge
	var fields [][]byte
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		fields = splitFields(fields, sc.Bytes())
		if len(fields) == 0 || fields[0][0] == '#' {
			continue
		}
		id, ok := parseID(fields[0])
		if !ok {
			return nil, badID(lineNo, "vertex ID", fields[0])
		}
		ids = append(ids, id)
		for _, f := range fields[1:] {
			var value pregel.Value
			// A bare ID has no ':', so only a field that is not one can
			// be a weighted edge.
			t, ok := parseID(f)
			if !ok {
				target := f
				if idx := bytes.IndexByte(f, ':'); idx >= 0 {
					target = f[:idx]
					w, err := strconv.ParseFloat(string(f[idx+1:]), 64)
					if err != nil {
						return nil, fmt.Errorf("graphio: line %d: bad weight %q: %w", lineNo, f, err)
					}
					value = pregel.NewDouble(w)
				}
				if t, ok = parseID(target); !ok {
					return nil, badID(lineNo, "neighbor", target)
				}
			}
			if value != nil && vals == nil {
				vals = make([]pregel.Value, len(src), cap(src))
			}
			src = append(src, id)
			dst = append(dst, t)
			if vals != nil {
				vals = append(vals, value)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return pregel.NewGraphFromEdges(ids, src, dst, vals), nil
}

// asciiSpace marks the bytes below utf8.RuneSelf that unicode.IsSpace
// accepts.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// splitFields splits line as bytes.Fields does, reusing dst's array. A
// line with a byte ≥ 0x80 goes to bytes.Fields itself, so Unicode
// separators such as U+0085 and U+00A0 split fields as they always have.
func splitFields(dst [][]byte, line []byte) [][]byte {
	dst = dst[:0]
	start := -1
	for i, c := range line {
		if c >= utf8.RuneSelf {
			return bytes.Fields(line)
		}
		if !asciiSpace[c] {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			dst = append(dst, line[start:i])
			start = -1
		}
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}

// parseID accepts exactly what strconv.ParseInt(string(b), 10, 64)
// accepts: an optional sign, then one or more decimal digits within
// int64's range.
func parseID(b []byte) (pregel.VertexID, bool) {
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	var u uint64
	for i, c := range b {
		d := uint64(c - '0')
		// Eighteen digits cannot overflow; past them, check each step.
		if d > 9 || (i >= 18 && u > (limit-d)/10) {
			return 0, false
		}
		u = u*10 + d
	}
	if neg {
		return pregel.VertexID(-int64(u)), true
	}
	return pregel.VertexID(u), true
}

// badID is the error for an ID field parseID rejected. Its cause comes
// from strconv.ParseInt, so the text is what the reader has always
// reported.
func badID(lineNo int, what string, f []byte) error {
	_, err := strconv.ParseInt(string(f), 10, 64)
	return fmt.Errorf("graphio: line %d: bad %s %q: %w", lineNo, what, f, err)
}

// WriteAdjacency writes g in adjacency-list form, vertices in
// ascending ID order.
func WriteAdjacency(w io.Writer, g *pregel.Graph) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for _, id := range g.VertexIDs() {
		line = strconv.AppendInt(line[:0], int64(id), 10)
		for _, e := range g.Vertex(id).Edges() {
			line = append(line, ' ')
			line = strconv.AppendInt(line, int64(e.Target), 10)
			if dv, ok := e.Value.(*pregel.DoubleValue); ok {
				line = append(line, ':')
				line = strconv.AppendFloat(line, dv.Get(), 'g', -1, 64)
			}
		}
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}
