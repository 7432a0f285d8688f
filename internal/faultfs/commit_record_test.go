package faultfs

import (
	"encoding/hex"
	"testing"

	"repro/internal/pager"
	"repro/internal/wal"
)

// TestCommitRecordBytes pins what the three durable roots write: the page
// file's header pair, the manifest's preamble and commit slots, and the log's
// header and truncation slots, each after one commit past creation. The
// fixtures under testdata prove that old files still read; this proves new
// files are still written in that format.
func TestCommitRecordBytes(t *testing.T) {
	type cell struct {
		off, n int64
		hex    string
	}
	cases := []struct {
		name  string
		write func(m *Media) error
		cells []cell
	}{
		{
			name: "diskfile",
			write: func(m *Media) error {
				d, err := pager.CreateDiskFileOn(m, 128)
				if err != nil {
					return err
				}
				a, err := d.Alloc()
				if err != nil {
					return err
				}
				if _, err := d.Alloc(); err != nil {
					return err
				}
				if err := d.Sync(); err != nil {
					return err
				}
				if err := d.Free(a); err != nil {
					return err
				}
				return d.Checkpoint([]byte{0, 0, 0, 7})
			},
			// The header pair, then page 1's sidecar: CRC and the two
			// parity links of the free chain.
			cells: []cell{
				{0, 64, "554944580000000200000000000000020000008000000003000000000000000000000000000000000000000000000000000000000000000000000000c7d47345"},
				{64, 64, "554944580000000200000000000000030000008000000003000000010000000104000000070000000000000000000000000000000000000000000000aef3a075"},
				{140 + 128, 12, "082764db0000000000000000"},
			},
		},
		{
			name: "manifest",
			write: func(m *Media) error {
				man, err := pager.CreateManifestOn(m, [][]byte{{0x42}}, []uint64{1, 1})
				if err != nil {
					return err
				}
				return man.CommitWAL([]uint64{2, 3}, 9)
			},
			cells: []cell{
				{0, 24, "5549584d000000020000000200000001000142ecae057d00"},
				{512, 36, "000000000000000200000000000000090000000000000002000000000000000383235b40"},
				{1024, 36, "0000000000000001000000000000000000000000000000010000000000000001a2f0a87c"},
			},
		},
		{
			name: "log",
			write: func(m *Media) error {
				l, err := wal.CreateOn(m, wal.Options{})
				if err != nil {
					return err
				}
				defer l.Close()
				lsn := l.Append([]byte("record"))
				if err := l.WaitDurable(lsn); err != nil {
					return err
				}
				return l.TruncateTo(lsn)
			},
			cells: []cell{
				{0, 16, "5557414c000000010000000000000000"},
				{512, 28, "000000000000000200000000000000020000000000000600bf6cdf03"},
				{1024, 28, "00000000000000010000000000000001000000000000060046eeb7cb"},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMedia()
			if err := tc.write(m); err != nil {
				t.Fatal(err)
			}
			for _, c := range tc.cells {
				buf := make([]byte, c.n)
				if _, err := m.ReadAt(buf, c.off); err != nil {
					t.Fatal(err)
				}
				if got := hex.EncodeToString(buf); got != c.hex {
					t.Errorf("bytes [%d,%d) = %s\n                  want %s", c.off, c.off+c.n, got, c.hex)
				}
			}
		})
	}
}
