package pager

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"testing"
)

// TestCommitSlotsElect: a cell takes part in the election only if its CRC
// holds and its generation is nonzero and sits in its own parity's cell; the
// newest such cell wins, or the one at a pinned generation.
func TestCommitSlotsElect(t *testing.T) {
	const n = 12 // 8-byte generation, 4 bytes of payload
	body := func(gen uint64) []byte {
		return append(binary.BigEndian.AppendUint64(nil, gen), "body"...)
	}
	// raw writes a CRC-valid cell for gen at cell c, whatever gen's parity.
	raw := func(s CommitSlots, c int64, gen uint64) error {
		b := body(gen)
		b = binary.BigEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
		_, err := s.B.WriteAt(b, s.Off+c*s.Stride)
		return err
	}
	cases := []struct {
		name  string
		write func(s CommitSlots) error
		want  map[uint64]uint64 // pin -> elected generation (0: none)
	}{
		{"empty", func(s CommitSlots) error { return nil },
			map[uint64]uint64{0: 0, 1: 0}},
		{"both valid", func(s CommitSlots) error {
			if err := s.Commit(body(1)); err != nil {
				return err
			}
			return s.Commit(body(2))
		}, map[uint64]uint64{0: 2, 1: 1, 2: 2, 3: 0, 4: 0}},
		{"bad CRC", func(s CommitSlots) error {
			if err := s.Commit(body(3)); err != nil {
				return err
			}
			if err := s.Commit(body(4)); err != nil {
				return err
			}
			_, err := s.B.WriteAt([]byte{0xff}, s.Off+9) // inside gen 4's body
			return err
		}, map[uint64]uint64{0: 3, 3: 3, 4: 0}},
		{"zero generation", func(s CommitSlots) error { return raw(s, 0, 0) },
			map[uint64]uint64{0: 0}},
		{"wrong cell", func(s CommitSlots) error {
			if err := s.Commit(body(1)); err != nil {
				return err
			}
			return raw(s, 0, 3) // an odd generation in the even cell
		}, map[uint64]uint64{0: 1, 1: 1, 3: 0}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, err := OpenPath(filepath.Join(t.TempDir(), fmt.Sprint(i)), true,
				func(b BlockFile) (BlockFile, error) { return b, nil })
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			s := CommitSlots{B: b, Off: 32, Stride: 64}
			if err := tc.write(s); err != nil {
				t.Fatal(err)
			}
			for pin, want := range tc.want {
				got, ok := s.Elect(n, pin)
				if ok != (want != 0) {
					t.Errorf("Elect(pin %d) ok = %v, want generation %d", pin, ok, want)
					continue
				}
				if ok && binary.BigEndian.Uint64(got) != want {
					t.Errorf("Elect(pin %d) = generation %d, want %d", pin, binary.BigEndian.Uint64(got), want)
				}
			}
		})
	}
}
