package nn

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"

	"mvpar/internal/tensor"
)

// Model files start with a fixed magic, a format version and a CRC32 of
// the payload, so truncation and bit rot fail loudly at load time instead
// of surfacing as a cryptic gob error (or worse, silently wrong weights).
// A stream without the header (a bare gob stream) is rejected.
//
// Layout: magic (8 bytes) | version (uint32 BE) | payload length
// (uint64 BE) | CRC32-IEEE of payload (uint32 BE) | gob payload.
const (
	paramsMagic   = "MVPARNN\x00"
	paramsVersion = 1
)

// paramBlob is the on-wire form of one parameter.
type paramBlob struct {
	Name string
	Rows int
	Cols int
	Data []float64
}

// SaveParams writes the parameter values (not gradients) to w as a
// checksummed, versioned container around a self-describing gob stream,
// keyed by parameter name.
func SaveParams(w io.Writer, params []*Param) error {
	blobs := make([]paramBlob, len(params))
	for i, p := range params {
		blobs[i] = paramBlob{
			Name: p.Name,
			Rows: p.Value.Rows,
			Cols: p.Value.Cols,
			Data: p.Value.Data,
		}
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(blobs); err != nil {
		return fmt.Errorf("nn: encode params: %w", err)
	}
	header := make([]byte, 0, len(paramsMagic)+16)
	header = append(header, paramsMagic...)
	header = binary.BigEndian.AppendUint32(header, paramsVersion)
	header = binary.BigEndian.AppendUint64(header, uint64(payload.Len()))
	header = binary.BigEndian.AppendUint32(header, crc32.ChecksumIEEE(payload.Bytes()))
	if _, err := w.Write(header); err != nil {
		return fmt.Errorf("nn: write params header: %w", err)
	}
	if _, err := w.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("nn: write params payload: %w", err)
	}
	return nil
}

// LoadParams reads a stream produced by SaveParams into params, matching
// by name and verifying shapes. The header's magic, version, length and
// checksum are verified first, so a headerless, truncated or corrupted
// file fails with a clear error. Blobs whose names match no param are
// ignored; a param the stream lacks is an error.
func LoadParams(r io.Reader, params []*Param) error {
	raw, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("nn: read params: %w", err)
	}
	headerLen := len(paramsMagic) + 16
	if len(raw) < headerLen {
		return fmt.Errorf("nn: params file truncated: %d bytes, header needs %d",
			len(raw), headerLen)
	}
	if !bytes.HasPrefix(raw, []byte(paramsMagic)) {
		return fmt.Errorf("nn: params file lacks the %q header: not written by SaveParams", paramsMagic)
	}
	version := binary.BigEndian.Uint32(raw[len(paramsMagic):])
	if version != paramsVersion {
		return fmt.Errorf("nn: params format version %d, this build reads %d",
			version, paramsVersion)
	}
	length := binary.BigEndian.Uint64(raw[len(paramsMagic)+4:])
	sum := binary.BigEndian.Uint32(raw[len(paramsMagic)+12:])
	payload := raw[headerLen:]
	if uint64(len(payload)) != length {
		return fmt.Errorf("nn: params file truncated: payload %d bytes, header declares %d",
			len(payload), length)
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return fmt.Errorf("nn: params checksum mismatch: file %08x, computed %08x (corrupted file?)",
			sum, got)
	}
	var blobs []paramBlob
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&blobs); err != nil {
		return fmt.Errorf("nn: decode params: %w", err)
	}
	byName := map[string]paramBlob{}
	for _, b := range blobs {
		byName[b.Name] = b
	}
	for _, p := range params {
		b, ok := byName[p.Name]
		if !ok {
			return fmt.Errorf("nn: missing parameter %q in stream", p.Name)
		}
		if b.Rows != p.Value.Rows || b.Cols != p.Value.Cols {
			return fmt.Errorf("nn: parameter %q shape %dx%d, stream has %dx%d",
				p.Name, p.Value.Rows, p.Value.Cols, b.Rows, b.Cols)
		}
		p.Value = tensor.FromSlice(b.Rows, b.Cols, append([]float64(nil), b.Data...))
	}
	return nil
}
