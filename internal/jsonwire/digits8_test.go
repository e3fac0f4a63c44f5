package jsonwire

import (
	"encoding/binary"
	"testing"
)

// TestDigits8 checks the lane arithmetic of digits8 on every input, against
// an odometer counting in ASCII.
func TestDigits8(t *testing.T) {
	want := []byte("00000000")
	for v := uint32(0); v < 1e8; v++ {
		if got := digits8(v); got != binary.LittleEndian.Uint64(want) {
			t.Fatalf("digits8(%d) = %q", v, binary.LittleEndian.AppendUint64(nil, got))
		}
		for i := 7; i >= 0; i-- {
			if want[i]++; want[i] <= '9' {
				break
			}
			want[i] = '0'
		}
	}
}
