package server

import (
	"errors"
	"math"
	"strconv"
)

// The wire codec. Request bodies are decoded by one strict, reflection-free
// parser (the package comment states its contract); the hot replies are
// appended byte by byte. Both work in a pooled wire buffer, so a request
// costs its decoded id and value slices and little else.

func bodyErr(msg string) error { return errors.New("malformed body: " + msg) }

// Field bits for duplicate-key detection.
const (
	fIDs = 1 << iota
	fVals
	fOps
	fAll
	fDelta
)

// decoder walks one request body. ints and ops are scratch reused across
// requests: array elements are parsed into them and copied out into an
// exactly sized slice, so each decoded array costs one allocation.
type decoder struct {
	b    []byte
	i    int
	ints []int64
	ops  []OneOp
}

func (d *decoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// eat consumes c after optional whitespace.
func (d *decoder) eat(c byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// literal consumes the keyword lit (null, true, false) after optional
// whitespace.
func (d *decoder) literal(lit string) bool {
	d.ws()
	if len(d.b)-d.i >= len(lit) && string(d.b[d.i:d.i+len(lit)]) == lit {
		d.i += len(lit)
		return true
	}
	return false
}

// key reads an object key and its colon. A key is a string of bytes with
// no escapes and no control characters; the caller matches it byte for byte
// against the field names.
func (d *decoder) key() ([]byte, error) {
	if !d.eat('"') {
		return nil, bodyErr("expected a quoted key")
	}
	start := d.i
	for ; d.i < len(d.b); d.i++ {
		if c := d.b[d.i]; c == '"' {
			k := d.b[start:d.i]
			d.i++
			if !d.eat(':') {
				return nil, bodyErr("expected ':' after a key")
			}
			return k, nil
		} else if c == '\\' || c < 0x20 {
			return nil, bodyErr("escaped or control character in a key")
		}
	}
	return nil, bodyErr("unterminated key")
}

// object reads one JSON object, calling field for each member with the
// member's key; field must consume the value. seen guards against a key
// given twice: field returns the key's bit, 0 for an unknown key.
func (d *decoder) object(field func(key []byte) (int, error)) error {
	if !d.eat('{') {
		return bodyErr("expected an object")
	}
	if d.eat('}') {
		return nil
	}
	seen := 0
	for {
		k, err := d.key()
		if err != nil {
			return err
		}
		bit, err := field(k)
		if err != nil {
			return err
		}
		if seen&bit != 0 {
			return bodyErr("duplicate key " + strconv.Quote(string(k)))
		}
		seen |= bit
		if d.eat('}') {
			return nil
		}
		if !d.eat(',') {
			return bodyErr("expected ',' or '}' after a value")
		}
	}
}

// end requires nothing but whitespace after the top-level object.
func (d *decoder) end() error {
	d.ws()
	if d.i != len(d.b) {
		return bodyErr("data after the top-level object")
	}
	return nil
}

// int reads one JSON integer within [lo, hi]: an optional minus sign and
// digits with no leading zero, no fraction and no exponent.
func (d *decoder) int(lo, hi int64) (int64, error) {
	d.ws()
	neg := d.i < len(d.b) && d.b[d.i] == '-'
	if neg {
		d.i++
	}
	start := d.i
	var u uint64
	for d.i < len(d.b) && d.b[d.i] >= '0' && d.b[d.i] <= '9' {
		if u > (math.MaxUint64-9)/10 {
			return 0, bodyErr("integer out of range")
		}
		u = u*10 + uint64(d.b[d.i]-'0')
		d.i++
	}
	switch {
	case d.i == start:
		return 0, bodyErr("expected an integer")
	case d.b[start] == '0' && d.i-start > 1:
		return 0, bodyErr("integer with a leading zero")
	}
	if neg {
		if u > uint64(-(lo+1))+1 {
			return 0, bodyErr("integer out of range")
		}
		return int64(-u), nil // two's complement: exact down to math.MinInt64
	}
	if u > uint64(hi) {
		return 0, bodyErr("integer out of range")
	}
	return int64(u), nil
}

// array reads null or an array of integers within [lo, hi] into d.ints,
// reporting whether it was null.
func (d *decoder) array(lo, hi int64) (null bool, err error) {
	d.ints = d.ints[:0]
	if d.literal("null") {
		return true, nil
	}
	if !d.eat('[') {
		return false, bodyErr("expected an array of integers")
	}
	if d.eat(']') {
		return false, nil
	}
	for {
		v, err := d.int(lo, hi)
		if err != nil {
			return false, err
		}
		d.ints = append(d.ints, v)
		if d.eat(']') {
			return false, nil
		}
		if !d.eat(',') {
			return false, bodyErr("expected ',' or ']' in an array")
		}
	}
}

func (d *decoder) ids() ([]int, error) {
	null, err := d.array(math.MinInt, math.MaxInt)
	if err != nil || null {
		return nil, err
	}
	out := make([]int, len(d.ints))
	for i, v := range d.ints {
		out[i] = int(v)
	}
	return out, nil
}

func (d *decoder) vals() ([]int64, error) {
	null, err := d.array(math.MinInt64, math.MaxInt64)
	if err != nil || null {
		return nil, err
	}
	return append(make([]int64, 0, len(d.ints)), d.ints...), nil
}

// pair reads an "ids" or "vals" member, the fields UpdateReq and OneOp
// share, and rejects any other key.
func (d *decoder) pair(k []byte, ids *[]int, vals *[]int64) (bit int, err error) {
	switch string(k) {
	case "ids":
		*ids, err = d.ids()
		return fIDs, err
	case "vals":
		*vals, err = d.vals()
		return fVals, err
	}
	return 0, unknownKey(k)
}

func unknownKey(k []byte) error { return bodyErr("unknown key " + strconv.Quote(string(k))) }

func (d *decoder) scan(b []byte, req *ScanReq) error {
	d.b, d.i = b, 0
	err := d.object(func(k []byte) (int, error) {
		var err error
		switch string(k) {
		case "ids":
			req.IDs, err = d.ids()
			return fIDs, err
		case "all":
			switch {
			case d.literal("true"):
				req.All = true
			case d.literal("false"), d.literal("null"):
				req.All = false
			default:
				return 0, bodyErr("expected a boolean")
			}
			return fAll, nil
		}
		return 0, unknownKey(k)
	})
	if err != nil {
		return err
	}
	return d.end()
}

func (d *decoder) update(b []byte, req *UpdateReq) error {
	d.b, d.i = b, 0
	err := d.object(func(k []byte) (int, error) {
		if string(k) == "ops" {
			var err error
			req.Ops, err = d.opList()
			return fOps, err
		}
		return d.pair(k, &req.IDs, &req.Vals)
	})
	if err != nil {
		return err
	}
	return d.end()
}

// opList reads null or an array of OneOp objects.
func (d *decoder) opList() ([]OneOp, error) {
	if d.literal("null") {
		return nil, nil
	}
	if !d.eat('[') {
		return nil, bodyErr("expected an array of ops")
	}
	d.ops = d.ops[:0]
	if !d.eat(']') {
		for {
			var op OneOp
			err := d.object(func(k []byte) (int, error) {
				return d.pair(k, &op.IDs, &op.Vals)
			})
			if err != nil {
				return nil, err
			}
			d.ops = append(d.ops, op)
			if d.eat(']') {
				break
			}
			if !d.eat(',') {
				return nil, bodyErr("expected ',' or ']' in the ops array")
			}
		}
	}
	out := append(make([]OneOp, 0, len(d.ops)), d.ops...)
	clear(d.ops) // drop the scratch's references to the request's slices
	return out, nil
}

func (d *decoder) resize(b []byte, req *ResizeReq) error {
	d.b, d.i = b, 0
	err := d.object(func(k []byte) (int, error) {
		if string(k) != "delta" {
			return 0, unknownKey(k)
		}
		if d.literal("null") {
			req.Delta = 0
			return fDelta, nil
		}
		v, err := d.int(math.MinInt, math.MaxInt)
		req.Delta = int(v)
		return fDelta, err
	})
	if err != nil {
		return err
	}
	return d.end()
}

// ---- replies ----

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

// appendScanResp appends a ScanResp body, byte for byte what encoding/json
// writes for ScanResp{IDs: ids, Vals: vals}, trailing newline included.
func appendScanResp(b []byte, ids []int, vals []int64) []byte {
	b = append(b, `{"ids":`...)
	b = appendInts(b, ids)
	b = append(b, `,"vals":`...)
	b = appendInts(b, vals)
	return append(b, "}\n"...)
}

// appendUpdateResp appends an UpdateResp body.
func appendUpdateResp(b []byte, applied int) []byte {
	b = append(b, `{"applied":`...)
	b = strconv.AppendInt(b, int64(applied), 10)
	return append(b, "}\n"...)
}
