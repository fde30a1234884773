// Package checkpoint implements the versioned, self-describing binary
// snapshot container behind the repository's crash-resume machinery.
//
// A long campaign — the paper's Fig. 7 experiment runs 65 million voting
// rounds — used to be an all-or-nothing in-memory pass: one crash or
// preemption and the whole campaign restarted. A Snapshot turns the
// campaign into a resumable computation: the engine serializes its state
// (buffers, counters, switchboard, PRNG streams) into named sections,
// and a resumed run continues byte-identically to an uninterrupted one.
//
// The container is deliberately dumb: it knows nothing about campaigns.
// It provides
//
//   - an 8-byte magic plus a container format version, so foreign files
//     are rejected before any section is parsed;
//   - a kind string plus a kind version, so each producer (the campaign
//     engine, the scenario runner) can evolve its payload schema
//     independently and reject snapshots it cannot interpret;
//   - named, length-prefixed sections in a deterministic order;
//   - a CRC-32 trailer over the entire container, so truncated or
//     corrupted files fail Decode instead of resuming a wrong campaign.
//
// Producers serialize fixed-width payloads with Writer and parse them
// with Reader (a sticky-error decoder), or store JSON in a section when
// the payload is cold. Compatibility rules are documented in DESIGN.md:
// the container version only changes when this file's layout changes;
// kind versions change whenever a producer's section schema changes, and
// there is no cross-version migration — a snapshot is a cache of a
// deterministic computation, so the producer re-runs from round zero
// rather than guessing at an old schema.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// FormatVersion is the container layout version written by Encode and
// required by Decode.
const FormatVersion = 1

// magic identifies checkpoint files; the trailing NUL keeps it 8 bytes.
var magic = [8]byte{'A', 'F', 'T', 'C', 'K', 'P', 'T', 0}

// Errors returned by Decode. They are wrapped with detail; test with
// errors.Is.
var (
	// ErrNotSnapshot reports data that does not begin with the
	// checkpoint magic — not a snapshot file at all.
	ErrNotSnapshot = errors.New("checkpoint: not a snapshot (bad magic)")
	// ErrFormatVersion reports a container format version this build
	// cannot parse.
	ErrFormatVersion = errors.New("checkpoint: unsupported container format version")
	// ErrCorrupt reports a snapshot that is truncated, has an invalid
	// structure, or fails its checksum.
	ErrCorrupt = errors.New("checkpoint: corrupt or truncated snapshot")
)

// maxSectionSize bounds a single section's declared length, so a corrupt
// length prefix cannot drive a multi-gigabyte allocation before the
// checksum is ever verified.
const maxSectionSize = 1 << 30

// section is one named payload.
type section struct {
	name    string
	payload []byte
}

// Snapshot is a decoded or under-construction snapshot: a kind, a kind
// version, and an ordered list of named sections.
type Snapshot struct {
	// Kind names the producer's schema, e.g. "aft/campaign".
	Kind string
	// Version is the producer's schema version for Kind.
	Version uint16

	sections []section
}

// New returns an empty snapshot of the given kind and kind version.
func New(kind string, version uint16) *Snapshot {
	return &Snapshot{Kind: kind, Version: version}
}

// Add appends a section, replacing any existing section with the same
// name in place (so section order stays deterministic).
func (s *Snapshot) Add(name string, payload []byte) {
	for i := range s.sections {
		if s.sections[i].name == name {
			s.sections[i].payload = payload
			return
		}
	}
	s.sections = append(s.sections, section{name: name, payload: payload})
}

// Section returns the named section's payload, or nil when absent. An
// empty section is distinguished from a missing one by Has.
func (s *Snapshot) Section(name string) []byte {
	for _, sec := range s.sections {
		if sec.name == name {
			return sec.payload
		}
	}
	return nil
}

// Has reports whether the named section exists.
func (s *Snapshot) Has(name string) bool {
	for _, sec := range s.sections {
		if sec.name == name {
			return true
		}
	}
	return false
}

// Names lists the section names in container order.
func (s *Snapshot) Names() []string {
	out := make([]string, len(s.sections))
	for i, sec := range s.sections {
		out[i] = sec.name
	}
	return out
}

// Encode serializes the snapshot: magic, format version, kind, kind
// version, sections, CRC-32 trailer.
func (s *Snapshot) Encode() []byte {
	var w Writer
	w.Raw(magic[:])
	w.U16(FormatVersion)
	w.String(s.Kind)
	w.U16(s.Version)
	w.U32(uint32(len(s.sections)))
	for _, sec := range s.sections {
		w.String(sec.name)
		w.Bytes(sec.payload)
	}
	body := w.Data()
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc32.ChecksumIEEE(body))
	return append(body, tail[:]...)
}

// Decode parses and verifies an encoded snapshot. It rejects foreign
// data (ErrNotSnapshot), unsupported container versions
// (ErrFormatVersion), and truncation or corruption anywhere in the file
// (ErrCorrupt) — the checksum covers every byte, so a resumed campaign
// can never silently start from damaged state.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < len(magic) {
		return nil, fmt.Errorf("%w: %d bytes", ErrNotSnapshot, len(data))
	}
	if string(data[:len(magic)]) != string(magic[:]) {
		return nil, ErrNotSnapshot
	}
	if len(data) < len(magic)+2+4 {
		return nil, fmt.Errorf("%w: %d bytes", ErrCorrupt, len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	r := NewReader(body[len(magic):])
	if v := r.U16(); v != FormatVersion {
		// The checksum already verified, so the version field is
		// trustworthy: this really is a snapshot from another build.
		return nil, fmt.Errorf("%w: %d (this build reads %d)", ErrFormatVersion, v, FormatVersion)
	}
	snap := &Snapshot{Kind: r.String(), Version: r.U16()}
	n := r.U32()
	if n > 1<<20 {
		return nil, fmt.Errorf("%w: %d sections", ErrCorrupt, n)
	}
	for i := uint32(0); i < n; i++ {
		name := r.String()
		payload := r.BytesCopy()
		if r.Err() != nil {
			break
		}
		snap.sections = append(snap.sections, section{name: name, payload: payload})
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return snap, nil
}

// WriteFile atomically writes the encoded snapshot; see
// WriteFileAtomic for the durability discipline.
func (s *Snapshot) WriteFile(path string) error {
	return WriteFileAtomic(path, s.Encode())
}

// WriteFileAtomic durably replaces path with data: parent directories
// are created as needed, the bytes land in a same-directory temporary
// file, are fsynced, and are renamed into place, so a crash mid-write
// can never leave a half-written file where a reader will look for a
// whole one. It is the one crash-safe write primitive shared by the
// snapshot container, the job store, and aft-bench's perf history.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close() // the write error is the one to report
		return err
	}
	// Flush to stable storage before the rename: without it a system
	// crash can make the rename durable before the data blocks, leaving
	// the path pointing at a truncated file — destroying the previous
	// good copy, the one loss this layer must prevent.
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close() // the sync error is the one to report
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	//aftvet:allow atomicwrite -- this IS the atomic-write primitive: the one sanctioned rename every persistence package routes through
	return os.Rename(tmp.Name(), path)
}

// ReadFile reads and decodes a snapshot file.
func ReadFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	snap, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return snap, nil
}
