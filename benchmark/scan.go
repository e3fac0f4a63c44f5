package main

import (
	"errors"
	"fmt"
	"strconv"
)

// The load generator shares the machine's cores with the server it
// drives, so checking a 64-verdict response must cost far less than
// producing it. This scanner reads exactly the response shapes the
// assessment endpoints answer with (objects, arrays, plain strings and
// numbers, keys in any order) without reflection or allocation;
// TestScanMatchesEncodingJSON pins it to encoding/json on real responses.

// wireVerdict is one verdict as it appears on the wire.
type wireVerdict struct {
	model    []byte
	version  uint64
	pred     int
	entropy  float64
	votes    [8]float64
	nvotes   int
	decision []byte
}

var errScan = errors.New("malformed response")

type scanner struct {
	b []byte
	i int
}

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\n', '\t', '\r':
			s.i++
		default:
			return
		}
	}
}

// eat consumes c (after whitespace) and reports whether it was there.
func (s *scanner) eat(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str reads a string without escapes (model names and decisions have
// none); the result aliases the response buffer.
func (s *scanner) str() ([]byte, error) {
	if !s.eat('"') {
		return nil, errScan
	}
	start := s.i
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case '"':
			s.i++
			return s.b[start : s.i-1], nil
		case '\\':
			return nil, fmt.Errorf("%w: escaped string", errScan)
		}
		s.i++
	}
	return nil, errScan
}

// num returns the bytes of the number at the cursor.
func (s *scanner) num() []byte {
	s.ws()
	start := s.i
	for s.i < len(s.b) {
		switch c := s.b[s.i]; {
		case c >= '0' && c <= '9', c == '-', c == '+', c == '.', c == 'e', c == 'E':
			s.i++
		default:
			return s.b[start:s.i]
		}
	}
	return s.b[start:s.i]
}

func (s *scanner) float() (float64, error) {
	return strconv.ParseFloat(string(s.num()), 64)
}

// skip consumes one value of any kind.
func (s *scanner) skip() error {
	s.ws()
	if s.i >= len(s.b) {
		return errScan
	}
	switch s.b[s.i] {
	case '{':
		return s.object(func([]byte) error { return s.skip() })
	case '[':
		return s.array(s.skip)
	case '"':
		_, err := s.str()
		return err
	case 't', 'f', 'n':
		for s.i < len(s.b) && s.b[s.i] >= 'a' && s.b[s.i] <= 'z' {
			s.i++
		}
		return nil
	default:
		if len(s.num()) == 0 {
			return errScan
		}
		return nil
	}
}

// object calls field for every key; field must consume the value.
func (s *scanner) object(field func(key []byte) error) error {
	if !s.eat('{') {
		return errScan
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
			return errScan
		}
		if err := field(key); err != nil {
			return err
		}
		if s.eat(',') {
			continue
		}
		if s.eat('}') {
			return nil
		}
		return errScan
	}
}

// array calls elem for every element; elem must consume it.
func (s *scanner) array(elem func() error) error {
	if !s.eat('[') {
		return errScan
	}
	if s.eat(']') {
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if s.eat(',') {
			continue
		}
		if s.eat(']') {
			return nil
		}
		return errScan
	}
}

// verdict reads one AssessResponse object into v.
func (s *scanner) verdict(v *wireVerdict) error {
	*v = wireVerdict{pred: -1}
	return s.object(func(key []byte) error {
		var err error
		switch string(key) {
		case "model":
			v.model, err = s.str()
		case "decision":
			v.decision, err = s.str()
		case "version":
			v.version, err = strconv.ParseUint(string(s.num()), 10, 64)
		case "prediction":
			v.pred, err = strconv.Atoi(string(s.num()))
		case "entropy":
			v.entropy, err = s.float()
		case "vote_dist":
			err = s.array(func() error {
				if v.nvotes == len(v.votes) {
					return fmt.Errorf("%w: more than %d vote classes", errScan, len(v.votes))
				}
				f, err := s.float()
				v.votes[v.nvotes] = f
				v.nvotes++
				return err
			})
		default:
			err = s.skip()
		}
		return err
	})
}

// scanAssess reads the body of a 200 from POST /v1/assess.
func scanAssess(body []byte, v *wireVerdict) error {
	s := scanner{b: body}
	return s.verdict(v)
}

// scanBatch reads the body of a 200 from POST /v1/assess/batch, calling
// each for every verdict in order, and returns how many there were.
func scanBatch(body []byte, each func(i int, v *wireVerdict) error) (int, error) {
	s := scanner{b: body}
	n := 0
	var v wireVerdict
	err := s.object(func(key []byte) error {
		if string(key) != "results" {
			return s.skip()
		}
		return s.array(func() error {
			if err := s.verdict(&v); err != nil {
				return err
			}
			err := each(n, &v)
			n++
			return err
		})
	})
	return n, err
}
