package graph

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

// Binary graph codec ("SGRB" format, version 1).
//
// The format is a length-prefixed CSR endpoint dump — exactly the adjacency
// the graph holds in memory, so encoding and decoding preserve multi-edges,
// self-loops, AND the per-node neighbor order (the order the oracle protocol
// pins and float accumulations depend on). A decoded graph is therefore not
// just Equal to the original as a labeled multigraph: its Neighbors lists
// are element-for-element identical, which makes the codec safe to insert
// anywhere in a byte-identical pipeline.
//
// Layout (all integers little-endian uint32):
//
//	offset  size        field
//	0       4           magic "SGRB"
//	4       4           version (1)
//	8       4           n, number of nodes
//	12      4           ends, number of edge endpoints (= 2m, always even)
//	16      4*n         per-node endpoint counts (degrees)
//	16+4n   4*ends      endpoints, node 0's list first, adjacency order
//	16+4n+4e  4         IEEE CRC-32 of bytes [4, 16+4n+4e)
//
// The trailing checksum covers everything after the magic, so torn writes
// and bit rot are detected before the decoder trusts any length field's
// product. Decoding additionally re-validates graph invariants (endpoint
// ranges, adjacency symmetry, paired self-loops), so a crafted file cannot
// produce a graph the rest of the repository's invariants don't hold for.
const (
	binaryMagic   = "SGRB"
	binaryVersion = 1
)

// binaryHeaderSize is the fixed prefix before the degree array; a file also
// carries the 4-byte trailing CRC.
const binaryHeaderSize = 16

// AppendBinary appends the binary encoding of g to buf and returns the
// extended slice. It is the allocation-conscious core of WriteBinary:
// content-addressed caches encode a result once and serve the returned
// bytes zero-copy.
func AppendBinary(buf []byte, g *Graph) ([]byte, error) {
	n := len(g.adj)
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("graph: %d nodes exceed the binary codec's int32 index space", n)
	}
	ends := 0
	for _, a := range g.adj {
		ends += len(a)
	}
	if ends > math.MaxInt32 {
		return nil, fmt.Errorf("graph: %d edge endpoints exceed the binary codec's int32 index space", ends)
	}
	need := binaryHeaderSize + 4*n + 4*ends + 4
	if cap(buf)-len(buf) < need {
		grown := make([]byte, len(buf), len(buf)+need)
		copy(grown, buf)
		buf = grown
	}
	buf = append(buf, binaryMagic...)
	crcFrom := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, binaryVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ends))
	for _, a := range g.adj {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(a)))
	}
	for _, a := range g.adj {
		for _, v := range a {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[crcFrom:])), nil
}

// WriteBinary writes g in the binary codec.
func WriteBinary(w io.Writer, g *Graph) error {
	buf, err := AppendBinary(nil, g)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// DecodeBinary decodes a graph from its complete binary encoding. The input
// must be exactly one encoded graph; trailing bytes are an error. The
// decoded graph passes Validate — corrupt or crafted inputs are rejected,
// not partially applied.
func DecodeBinary(data []byte) (*Graph, error) {
	if len(data) < binaryHeaderSize+4 {
		return nil, fmt.Errorf("graph: binary input truncated at %d bytes", len(data))
	}
	if string(data[:4]) != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %q (not an SGRB graph file)", data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != binaryVersion {
		return nil, fmt.Errorf("graph: unsupported binary format version %d", v)
	}
	n := binary.LittleEndian.Uint32(data[8:])
	ends := binary.LittleEndian.Uint32(data[12:])
	if n > math.MaxInt32 || ends > math.MaxInt32 {
		return nil, fmt.Errorf("graph: declared sizes n=%d ends=%d exceed the int32 index space", n, ends)
	}
	want := binaryHeaderSize + 4*int64(n) + 4*int64(ends) + 4
	if int64(len(data)) != want {
		return nil, fmt.Errorf("graph: binary input is %d bytes, header declares %d", len(data), want)
	}
	if ends%2 != 0 {
		return nil, fmt.Errorf("graph: odd endpoint count %d violates the handshake identity", ends)
	}
	body := data[4 : len(data)-4]
	if got, wantCRC := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(data[len(data)-4:]); got != wantCRC {
		return nil, fmt.Errorf("graph: checksum mismatch (got %08x, recorded %08x)", got, wantCRC)
	}

	deg := data[binaryHeaderSize:]
	pts := data[binaryHeaderSize+4*int(n):]
	total := uint64(0)
	for u := 0; u < int(n); u++ {
		total += uint64(binary.LittleEndian.Uint32(deg[4*u:]))
	}
	if total != uint64(ends) {
		return nil, fmt.Errorf("graph: degree sum %d != declared endpoint count %d", total, ends)
	}
	// One arena backs every row, carved as FromEdgeLists carves its own.
	off := make([]int, n+1)
	arena := make([]int, ends)
	for u := 0; u < int(n); u++ {
		off[u+1] = off[u] + int(binary.LittleEndian.Uint32(deg[4*u:]))
		for i := off[u]; i < off[u+1]; i++ {
			v := binary.LittleEndian.Uint32(pts[4*i:])
			if v >= n {
				return nil, fmt.Errorf("graph: node %d lists out-of-range neighbor %d", u, v)
			}
			arena[i] = int(v)
		}
	}
	g := fromArena(off, arena)
	// Structural re-validation: symmetry and paired self-loops cannot be
	// checked from lengths alone, and a graph violating them would break
	// every downstream invariant.
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// ReadBinary decodes a graph written by WriteBinary from r.
func ReadBinary(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return DecodeBinary(data)
}

// SaveBinary writes the graph to path in the binary codec.
func SaveBinary(path string, g *Graph) error {
	buf, err := AppendBinary(nil, g)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// LoadBinary reads a binary graph file from disk.
func LoadBinary(path string) (*Graph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	g, err := DecodeBinary(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}
