package main

import (
	"errors"
	"fmt"
	"strconv"
)

// The load generator shares two cores with the daemon, so its own JSON
// work is kept small: request bodies are appended by hand and responses
// are checked by a single pass that allocates nothing. wire_test.go keeps
// both in step with the server's public wire types.

func appendInts[T int | int64](b []byte, xs []T) []byte {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

// appendScanReq appends a server.ScanReq body.
func appendScanReq(b []byte, ids []int) []byte {
	b = append(b, `{"ids":`...)
	return append(appendInts(b, ids), '}')
}

// appendUpdate appends one update's "ids" and "vals" fields.
func appendUpdate(b []byte, ids []int, vals []int64) []byte {
	b = append(b, `"ids":`...)
	b = appendInts(b, ids)
	b = append(b, `,"vals":`...)
	return appendInts(b, vals)
}

// errBody reports a response body that does not have the expected shape.
var errBody = errors.New("malformed response body")

// jsonScan walks one JSON document. It understands exactly what the
// checks need: objects, arrays of integers, and skipping any other value.
type jsonScan struct {
	b []byte
	i int
}

func (s *jsonScan) ws() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\n' || s.b[s.i] == '\t' || s.b[s.i] == '\r') {
		s.i++
	}
}

func (s *jsonScan) eat(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str reads a string without escapes (every key the server sends).
func (s *jsonScan) str() ([]byte, error) {
	if !s.eat('"') {
		return nil, errBody
	}
	start := s.i
	for s.i < len(s.b) && s.b[s.i] != '"' {
		if s.b[s.i] == '\\' {
			s.i++
		}
		s.i++
	}
	if s.i >= len(s.b) {
		return nil, errBody
	}
	s.i++
	return s.b[start : s.i-1], nil
}

func (s *jsonScan) int() (int64, error) {
	s.ws()
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	start := s.i
	var v int64
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		v = v*10 + int64(s.b[s.i]-'0')
		s.i++
	}
	if s.i == start || s.i-start > 18 {
		return 0, errBody
	}
	if neg {
		v = -v
	}
	return v, nil
}

// ints reads an array of integers, calling each with every element.
func (s *jsonScan) ints(each func(k int, v int64) error) (int, error) {
	if !s.eat('[') {
		return 0, errBody
	}
	if s.eat(']') {
		return 0, nil
	}
	for k := 0; ; k++ {
		v, err := s.int()
		if err != nil {
			return 0, errBody
		}
		if err := each(k, v); err != nil {
			return 0, err
		}
		if s.eat(']') {
			return k + 1, nil
		}
		if !s.eat(',') {
			return 0, errBody
		}
	}
}

// skip passes over one value of any kind.
func (s *jsonScan) skip() error {
	s.ws()
	if s.i >= len(s.b) {
		return errBody
	}
	switch s.b[s.i] {
	case '"':
		_, err := s.str()
		return err
	case '{', '[':
		depth := 0
		for s.i < len(s.b) {
			switch s.b[s.i] {
			case '"':
				if _, err := s.str(); err != nil {
					return err
				}
				continue
			case '{', '[':
				depth++
			case '}', ']':
				depth--
			}
			s.i++
			if depth == 0 {
				return nil
			}
		}
		return errBody
	default:
		for s.i < len(s.b) && s.b[s.i] != ',' && s.b[s.i] != '}' && s.b[s.i] != ']' {
			s.i++
		}
		return nil
	}
}

// object calls field with every key of a JSON object, positioned at the
// key's value; field must consume the value.
func (s *jsonScan) object(field func(key []byte) error) error {
	if !s.eat('{') {
		return errBody
	}
	if s.eat('}') {
		return nil
	}
	for {
		key, err := s.str()
		if err != nil {
			return err
		}
		if !s.eat(':') {
			return errBody
		}
		if err := field(key); err != nil {
			return err
		}
		if s.eat('}') {
			s.ws()
			if s.i != len(s.b) {
				return errBody
			}
			return nil
		}
		if !s.eat(',') {
			return errBody
		}
	}
}

// checkScanBody checks a server.ScanResp body: it echoes ids in order and
// carries one integer value per id.
func checkScanBody(body []byte, ids []int) error {
	s := jsonScan{b: body}
	nIDs, nVals := -1, -1
	err := s.object(func(key []byte) error {
		var err error
		switch string(key) {
		case "ids":
			nIDs, err = s.ints(func(k int, v int64) error {
				if k >= len(ids) || v != int64(ids[k]) {
					return fmt.Errorf("id %d of the response does not echo the request", k)
				}
				return nil
			})
		case "vals":
			nVals, err = s.ints(func(int, int64) error { return nil })
		default:
			err = s.skip()
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("/scan: %w", err)
	}
	if nIDs != len(ids) || nVals != len(ids) {
		return fmt.Errorf("/scan: %d ids and %d vals for a scan of %d ids", nIDs, nVals, len(ids))
	}
	return nil
}

// checkUpdateBody checks a server.UpdateResp body acknowledges ops ops.
func checkUpdateBody(body []byte, ops int) error {
	s := jsonScan{b: body}
	applied := int64(-1)
	err := s.object(func(key []byte) error {
		if string(key) != "applied" {
			return s.skip()
		}
		var err error
		applied, err = s.int()
		return err
	})
	if err != nil {
		return fmt.Errorf("/update: %w", err)
	}
	if applied != int64(ops) {
		return fmt.Errorf("/update: applied %d of %d ops", applied, ops)
	}
	return nil
}
