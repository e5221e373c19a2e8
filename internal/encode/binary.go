package encode

// Flat binary containers (DESIGN.md §13): the one on-disk format for
// automaton artifacts and auditd checkpoints. A container keeps the
// small, irregular metadata as JSON sections and stores the big
// rectangular arrays as raw little-endian int32 sections (and term
// tables as string-table sections), so a loader mostly copies bytes
// instead of round-tripping every int32 through decimal JSON and every
// COWS term through string escaping.
//
// Layout (all little-endian):
//
//	[0:8)    magic  0x89 "PCB" \r \n 0x1a \n   (PNG-style: detects
//	         text-mode mangling and truncation of the first block)
//	[8:12)   uint32 container version
//	[12:16)  uint32 kind (1 = automaton artifact, 2 = checkpoint)
//	[16:20)  uint32 section count
//	[20:24)  uint32 CRC-32 (IEEE) of everything after the header
//	then     count × {uint32 id, uint32 reserved, uint64 offset,
//	         uint64 size} section directory, offsets from file start
//	then     the payload; every section starts 8-byte aligned, so an
//	         mmap'd file can alias int32/int64 sections in place
//
// Unknown section ids are ignored by readers (forward-compatible
// additions); a wrong magic, version, kind, CRC or a section that
// escapes the file fails loudly as ErrArtifactMismatch.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/automaton"
)

// Container kinds.
const (
	KindAutomaton  = uint32(1)
	KindCheckpoint = uint32(2)
)

// BinaryVersion is the container format version.
const BinaryVersion = 1

// binaryMagic opens every flat binary container.
var binaryMagic = [8]byte{0x89, 'P', 'C', 'B', '\r', '\n', 0x1a, '\n'}

// Section is one directory entry's payload, identified by a
// kind-specific id.
type Section struct {
	ID   uint32
	Data []byte
}

const (
	binHeaderSize   = 24
	binDirEntrySize = 24
	binMaxSections  = 1 << 12
)

// WriteContainer assembles and writes a container of the given kind.
func WriteContainer(w io.Writer, kind uint32, sections []Section) error {
	if len(sections) > binMaxSections {
		return fmt.Errorf("encode: %d sections exceed the container limit", len(sections))
	}
	dirSize := len(sections) * binDirEntrySize
	size := binHeaderSize + dirSize
	offsets := make([]uint64, len(sections))
	for i, s := range sections {
		size = (size + 7) &^ 7 // 8-byte alignment for raw int sections
		offsets[i] = uint64(size)
		size += len(s.Data)
	}
	buf := make([]byte, size)
	copy(buf, binaryMagic[:])
	binary.LittleEndian.PutUint32(buf[8:], BinaryVersion)
	binary.LittleEndian.PutUint32(buf[12:], kind)
	binary.LittleEndian.PutUint32(buf[16:], uint32(len(sections)))
	for i, s := range sections {
		e := buf[binHeaderSize+i*binDirEntrySize:]
		binary.LittleEndian.PutUint32(e, s.ID)
		binary.LittleEndian.PutUint64(e[8:], offsets[i])
		binary.LittleEndian.PutUint64(e[16:], uint64(len(s.Data)))
		copy(buf[offsets[i]:], s.Data)
	}
	binary.LittleEndian.PutUint32(buf[20:], crc32.ChecksumIEEE(buf[binHeaderSize:]))
	_, err := w.Write(buf)
	return err
}

// ReadContainer validates a container image and returns its sections
// by id. The returned slices alias data — callers that mutate must
// copy (the codecs below copy into their own arrays).
func ReadContainer(data []byte, kind uint32) (map[uint32][]byte, error) {
	if len(data) < binHeaderSize || [8]byte(data[:8]) != binaryMagic {
		return nil, fmt.Errorf("%w: not a binary container", ErrArtifactMismatch)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != BinaryVersion {
		return nil, fmt.Errorf("%w: container version %d, want %d", ErrArtifactMismatch, v, BinaryVersion)
	}
	if k := binary.LittleEndian.Uint32(data[12:]); k != kind {
		return nil, fmt.Errorf("%w: container kind %d, want %d", ErrArtifactMismatch, k, kind)
	}
	count := binary.LittleEndian.Uint32(data[16:])
	if count > binMaxSections {
		return nil, fmt.Errorf("%w: %d sections exceed the container limit", ErrArtifactMismatch, count)
	}
	if crc := binary.LittleEndian.Uint32(data[20:]); crc != crc32.ChecksumIEEE(data[binHeaderSize:]) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrArtifactMismatch)
	}
	dirEnd := binHeaderSize + int(count)*binDirEntrySize
	if dirEnd > len(data) {
		return nil, fmt.Errorf("%w: section directory truncated", ErrArtifactMismatch)
	}
	out := make(map[uint32][]byte, count)
	for i := 0; i < int(count); i++ {
		e := data[binHeaderSize+i*binDirEntrySize:]
		id := binary.LittleEndian.Uint32(e)
		off := binary.LittleEndian.Uint64(e[8:])
		n := binary.LittleEndian.Uint64(e[16:])
		if off < uint64(dirEnd) || off+n < off || off+n > uint64(len(data)) {
			return nil, fmt.Errorf("%w: section %d escapes the file", ErrArtifactMismatch, id)
		}
		out[id] = data[off : off+n]
	}
	return out, nil
}

// Record frames. The container above is a whole-file format: one CRC
// over everything, written once. Append-only logs (internal/wal) need
// the same integrity per record instead, so they can tell a torn tail
// from a corrupted middle. A frame is
//
//	[uint32 payload length][uint32 CRC-32C of payload][payload]
//
// little-endian, CRC-32 Castagnoli (hardware-assisted on amd64/arm64 —
// frames sit on the ingest hot path, where IEEE's table walk would
// cost more than the copy).

// frameCRC is the Castagnoli table used by record frames.
var frameCRC = crc32.MakeTable(crc32.Castagnoli)

// FrameOverhead is the per-record framing cost in bytes.
const FrameOverhead = 8

// ErrFrameTruncated reports a frame that extends past the available
// bytes — the expected shape of a torn tail after a crash, distinct
// from corruption (which is an ErrArtifactMismatch).
var ErrFrameTruncated = errors.New("encode: record frame truncated")

// AppendRecordFrame appends one framed record to dst and returns the
// extended slice. Empty payloads are legal to frame but readers treat
// a zero length as truncation (appenders must not write them; zeroed
// tail bytes would otherwise parse as an endless run of empty records).
func AppendRecordFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, frameCRC))
	return append(dst, payload...)
}

// ReadRecordFrame parses the frame at the start of data. It returns the
// payload (aliasing data) and the total frame size. A frame that runs
// past the end of data — or a zero length, which a torn zero-filled
// tail produces — is ErrFrameTruncated; a complete frame whose CRC does
// not match is corruption and fails as ErrArtifactMismatch.
func ReadRecordFrame(data []byte) (payload []byte, n int, err error) {
	if len(data) < FrameOverhead {
		return nil, 0, ErrFrameTruncated
	}
	size := binary.LittleEndian.Uint32(data)
	if size == 0 {
		return nil, 0, ErrFrameTruncated
	}
	n = FrameOverhead + int(size)
	if uint64(len(data)) < uint64(FrameOverhead)+uint64(size) {
		return nil, 0, ErrFrameTruncated
	}
	payload = data[FrameOverhead:n]
	if crc := binary.LittleEndian.Uint32(data[4:]); crc != crc32.Checksum(payload, frameCRC) {
		return nil, 0, fmt.Errorf("%w: record frame CRC mismatch", ErrArtifactMismatch)
	}
	return payload, n, nil
}

// Int32Section encodes an int32 slice as raw little-endian bytes.
func Int32Section(v []int32) []byte {
	buf := make([]byte, 0, 4*len(v))
	for _, x := range v {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
	}
	return buf
}

// ReadInt32Section decodes a raw little-endian int32 section.
func ReadInt32Section(data []byte) ([]int32, error) {
	if len(data)%4 != 0 {
		return nil, fmt.Errorf("%w: int32 section of %d bytes", ErrArtifactMismatch, len(data))
	}
	out := make([]int32, len(data)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(data[4*i:]))
	}
	return out, nil
}

// StringTableSection encodes strings as a (count+1)-entry uint32
// offset array over a concatenated blob: random access without
// per-string length parsing.
func StringTableSection(v []string) []byte {
	size := 4 * (len(v) + 2)
	for _, s := range v {
		size += len(s)
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v)))
	off := uint32(0)
	for _, s := range v {
		buf = binary.LittleEndian.AppendUint32(buf, off)
		off += uint32(len(s))
	}
	buf = binary.LittleEndian.AppendUint32(buf, off)
	for _, s := range v {
		buf = append(buf, s...)
	}
	return buf
}

// ReadStringTableSection decodes a string-table section.
func ReadStringTableSection(data []byte) ([]string, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("%w: string table truncated", ErrArtifactMismatch)
	}
	count := int(binary.LittleEndian.Uint32(data))
	head := 4 * (count + 2)
	if count < 0 || head > len(data) {
		return nil, fmt.Errorf("%w: string table header escapes section", ErrArtifactMismatch)
	}
	blob := data[head:]
	out := make([]string, count)
	prev := binary.LittleEndian.Uint32(data[4:])
	for i := 0; i < count; i++ {
		next := binary.LittleEndian.Uint32(data[4*(i+2):])
		if next < prev || next > uint32(len(blob)) {
			return nil, fmt.Errorf("%w: string table offsets out of order", ErrArtifactMismatch)
		}
		out[i] = string(blob[prev:next])
		prev = next
	}
	return out, nil
}

// Automaton section ids.
const (
	secAutoMeta          = uint32(1) // JSON: everything small
	secAutoDelta         = uint32(2) // raw int32: transition table
	secAutoSymMap        = uint32(3) // raw int32: alphabet compaction
	secAutoConfigs       = uint32(4) // raw int32 pairs: (term, active)
	secAutoMemberOffsets = uint32(5) // raw int32: per-state offsets, len states+1
	secAutoMembers       = uint32(6) // raw int32: flattened member ids
)

// binStateMeta is State without its Members (which live in the raw
// member sections).
type binStateMeta struct {
	CanComplete bool              `json:"can_complete,omitempty"`
	Expected    []string          `json:"expected,omitempty"`
	ActiveTasks []string          `json:"active_tasks,omitempty"`
	Active      []automaton.Offer `json:"active,omitempty"`
	Fire        []automaton.Offer `json:"fire,omitempty"`
}

// binAutomatonMeta is the JSON metadata section: the DFA minus its
// four big arrays.
type binAutomatonMeta struct {
	Compiler          string                   `json:"compiler"`
	Fingerprint       string                   `json:"fingerprint"`
	Purpose           string                   `json:"purpose"`
	Strict            bool                     `json:"strict"`
	NoAbsorption      bool                     `json:"no_absorption,omitempty"`
	MaxConfigurations int                      `json:"max_configurations"`
	Tasks             []string                 `json:"tasks"`
	TaskRoles         []string                 `json:"task_roles"`
	PoolRoles         []string                 `json:"pool_roles"`
	Classes           []uint64                 `json:"classes"`
	RoleClass         map[string]int32         `json:"role_class"`
	ZeroClass         int32                    `json:"zero_class"`
	Terms             []string                 `json:"terms"`
	Texts             []string                 `json:"texts"`
	ActiveSets        [][]automaton.ActiveTask `json:"active_sets"`
	States            []binStateMeta           `json:"states"`
	Start             int32                    `json:"start"`
	Columns           int32                    `json:"columns,omitempty"`
}

// WriteAutomatonBinary serializes a compiled automaton as a flat
// binary container.
func WriteAutomatonBinary(w io.Writer, d *automaton.DFA) error {
	meta := binAutomatonMeta{
		Compiler:          d.Compiler,
		Fingerprint:       d.Fingerprint,
		Purpose:           d.Purpose,
		Strict:            d.Strict,
		NoAbsorption:      d.NoAbsorption,
		MaxConfigurations: d.MaxConfigurations,
		Tasks:             d.Tasks,
		TaskRoles:         d.TaskRoles,
		PoolRoles:         d.PoolRoles,
		Classes:           d.Classes,
		RoleClass:         d.RoleClass,
		ZeroClass:         d.ZeroClass,
		Terms:             d.Terms,
		Texts:             d.Texts,
		ActiveSets:        d.ActiveSets,
		Start:             d.Start,
		Columns:           d.Columns,
	}
	offsets := make([]int32, 0, len(d.States)+1)
	var members []int32
	for i := range d.States {
		st := &d.States[i]
		meta.States = append(meta.States, binStateMeta{
			CanComplete: st.CanComplete,
			Expected:    st.Expected,
			ActiveTasks: st.ActiveTasks,
			Active:      st.Active,
			Fire:        st.Fire,
		})
		offsets = append(offsets, int32(len(members)))
		members = append(members, st.Members...)
	}
	offsets = append(offsets, int32(len(members)))
	configs := make([]int32, 0, 2*len(d.Configs))
	for _, c := range d.Configs {
		configs = append(configs, c.Term, c.Active)
	}
	metaJSON, err := json.Marshal(&meta)
	if err != nil {
		return fmt.Errorf("encode automaton meta: %w", err)
	}
	return WriteContainer(w, KindAutomaton, []Section{
		{secAutoMeta, metaJSON},
		{secAutoDelta, Int32Section(d.Delta)},
		{secAutoSymMap, Int32Section(d.SymMap)},
		{secAutoConfigs, Int32Section(configs)},
		{secAutoMemberOffsets, Int32Section(offsets)},
		{secAutoMembers, Int32Section(members)},
	})
}

// ReadAutomatonBinary deserializes a flat binary artifact image and
// validates the automaton's table invariants (Finish): a table without
// a symbol map — the unminimized layout older versions could write —
// is refused.
func ReadAutomatonBinary(data []byte) (*automaton.DFA, error) {
	secs, err := ReadContainer(data, KindAutomaton)
	if err != nil {
		return nil, err
	}
	var meta binAutomatonMeta
	if err := json.Unmarshal(secs[secAutoMeta], &meta); err != nil {
		return nil, fmt.Errorf("%w: meta section: %v", ErrArtifactMismatch, err)
	}
	delta, err := ReadInt32Section(secs[secAutoDelta])
	if err != nil {
		return nil, err
	}
	symMap, err := ReadInt32Section(secs[secAutoSymMap])
	if err != nil {
		return nil, err
	}
	rawConfigs, err := ReadInt32Section(secs[secAutoConfigs])
	if err != nil {
		return nil, err
	}
	offsets, err := ReadInt32Section(secs[secAutoMemberOffsets])
	if err != nil {
		return nil, err
	}
	members, err := ReadInt32Section(secs[secAutoMembers])
	if err != nil {
		return nil, err
	}
	if len(rawConfigs)%2 != 0 {
		return nil, fmt.Errorf("%w: odd config section", ErrArtifactMismatch)
	}
	if len(offsets) != len(meta.States)+1 {
		return nil, fmt.Errorf("%w: %d member offsets for %d states", ErrArtifactMismatch, len(offsets), len(meta.States))
	}
	d := &automaton.DFA{
		Compiler:          meta.Compiler,
		Fingerprint:       meta.Fingerprint,
		Purpose:           meta.Purpose,
		Strict:            meta.Strict,
		NoAbsorption:      meta.NoAbsorption,
		MaxConfigurations: meta.MaxConfigurations,
		Tasks:             meta.Tasks,
		TaskRoles:         meta.TaskRoles,
		PoolRoles:         meta.PoolRoles,
		Classes:           meta.Classes,
		RoleClass:         meta.RoleClass,
		ZeroClass:         meta.ZeroClass,
		Terms:             meta.Terms,
		Texts:             meta.Texts,
		ActiveSets:        meta.ActiveSets,
		Start:             meta.Start,
		Delta:             delta,
		SymMap:            symMap,
		Columns:           meta.Columns,
	}
	d.Configs = make([]automaton.Config, len(rawConfigs)/2)
	for i := range d.Configs {
		d.Configs[i] = automaton.Config{Term: rawConfigs[2*i], Active: rawConfigs[2*i+1]}
	}
	d.States = make([]automaton.State, len(meta.States))
	for i, sm := range meta.States {
		lo, hi := offsets[i], offsets[i+1]
		if lo < 0 || hi < lo || int(hi) > len(members) {
			return nil, fmt.Errorf("%w: state %d member range [%d,%d)", ErrArtifactMismatch, i, lo, hi)
		}
		d.States[i] = automaton.State{
			Members:     members[lo:hi:hi],
			CanComplete: sm.CanComplete,
			Expected:    sm.Expected,
			ActiveTasks: sm.ActiveTasks,
			Active:      sm.Active,
			Fire:        sm.Fire,
		}
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("invalid automaton artifact: %w", err)
	}
	return d, nil
}
