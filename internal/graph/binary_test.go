package graph

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
)

func TestBinaryRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(711))
	cases := []*Graph{
		New(0),
		New(3), // isolated nodes only
		randomMultigraph(r, 1, 4),
		randomMultigraph(r, 25, 80),
		randomMultigraph(r, 200, 1000),
	}
	for ci, g := range cases {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatalf("case %d: WriteBinary: %v", ci, err)
		}
		got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("case %d: ReadBinary: %v", ci, err)
		}
		if !Equal(g, got) {
			t.Fatalf("case %d: decoded graph not Equal (n=%d m=%d vs n=%d m=%d)",
				ci, g.N(), g.M(), got.N(), got.M())
		}
		// Stronger than Equal: adjacency order must survive verbatim.
		for u := 0; u < g.N(); u++ {
			a, b := g.Neighbors(u), got.Neighbors(u)
			if len(a) != len(b) {
				t.Fatalf("case %d: node %d degree %d != %d", ci, u, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("case %d: node %d adjacency order changed at slot %d: %d != %d",
						ci, u, i, a[i], b[i])
				}
			}
		}
		// Re-encoding the decoded graph must reproduce the bytes exactly —
		// the property content-addressed caches build on.
		again, err := AppendBinary(nil, got)
		if err != nil {
			t.Fatalf("case %d: re-encode: %v", ci, err)
		}
		if !bytes.Equal(buf.Bytes(), again) {
			t.Fatalf("case %d: encode(decode(x)) != x", ci)
		}
	}
}

func TestBinaryAppendMatchesWrite(t *testing.T) {
	g := randomMultigraph(rand.New(rand.NewSource(35)), 40, 120)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	app, err := AppendBinary([]byte("prefix"), g)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(app[len("prefix"):], buf.Bytes()) {
		t.Fatal("AppendBinary after a prefix differs from WriteBinary")
	}
}

func TestBinarySaveLoad(t *testing.T) {
	g := randomMultigraph(rand.New(rand.NewSource(92)), 30, 90)
	path := filepath.Join(t.TempDir(), "g.sgrb")
	if err := SaveBinary(path, g); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(g, got) {
		t.Fatal("LoadBinary(SaveBinary(g)) != g")
	}
}

func TestBinaryRejectsCorruptInput(t *testing.T) {
	g := randomMultigraph(rand.New(rand.NewSource(11)), 20, 60)
	good, err := AppendBinary(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), good...))
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "truncated"},
		{"short", good[:8], "truncated"},
		{"bad magic", mutate(func(b []byte) []byte { b[0] = 'X'; return b }), "bad magic"},
		{"bad version", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:], 99)
			return b
		}), "version"},
		{"truncated body", good[:len(good)-8], "declares"},
		{"trailing garbage", append(append([]byte(nil), good...), 0, 0, 0, 0), "declares"},
		{"flipped payload bit", mutate(func(b []byte) []byte { b[20] ^= 1; return b }), "checksum"},
		{"flipped crc", mutate(func(b []byte) []byte { b[len(b)-1] ^= 1; return b }), "checksum"},
	}
	for _, tc := range cases {
		if _, err := DecodeBinary(tc.data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestBinaryRejectsInvalidGraphs feeds structurally invalid but
// checksum-correct encodings: the decoder must re-validate graph
// invariants, not just framing.
func TestBinaryRejectsInvalidGraphs(t *testing.T) {
	// encode hand-builds an SGRB file from raw degree/endpoint arrays with a
	// valid CRC, bypassing the encoder's invariants.
	encode := func(n uint32, deg, pts []uint32) []byte {
		buf := []byte(binaryMagic)
		buf = binary.LittleEndian.AppendUint32(buf, binaryVersion)
		buf = binary.LittleEndian.AppendUint32(buf, n)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(pts)))
		for _, d := range deg {
			buf = binary.LittleEndian.AppendUint32(buf, d)
		}
		for _, p := range pts {
			buf = binary.LittleEndian.AppendUint32(buf, p)
		}
		crc := crc32.ChecksumIEEE(buf[4:])
		return binary.LittleEndian.AppendUint32(buf, crc)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"odd endpoints", encode(2, []uint32{1, 0}, []uint32{1})},
		{"degree sum mismatch", encode(2, []uint32{2, 2}, []uint32{1, 0})},
		{"out of range neighbor", encode(2, []uint32{1, 1}, []uint32{1, 5})},
		{"asymmetric adjacency", encode(3, []uint32{1, 1, 0}, []uint32{1, 2})},
		// Every listed edge exists on both sides, but 0 lists 1 twice and 1
		// lists 0 once: only a per-pair count comparison catches it.
		{"asymmetric multiplicity", encode(3, []uint32{2, 3, 1}, []uint32{1, 1, 0, 2, 2, 1})},
		{"half self-loop", encode(2, []uint32{1, 1}, []uint32{0, 0})},
	}
	for _, tc := range cases {
		if _, err := DecodeBinary(tc.data); err == nil {
			t.Errorf("%s: decoder accepted an invalid graph", tc.name)
		}
	}
}
