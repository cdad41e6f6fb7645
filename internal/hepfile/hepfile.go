// Package hepfile implements the multi-level event files flowing through
// the analysis chain: GEN (generated events), SIM (after detector
// simulation), DST (reconstructed events), ODS (selected physics
// objects) and HAT (per-event ntuple summaries).
//
// The paper's H1 chain runs "from MC generation and simulation, through
// multi-level file production and ending with a full physics analysis" —
// H1's real levels were DST, ODS and HAT, reproduced here. Files are
// binary blobs on the common storage with a magic, a version, a level
// tag, a record count and a trailing CRC-32, so that a truncated or
// corrupted artifact fails loudly at the stage that reads it rather than
// silently producing wrong physics.
package hepfile

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/hepsim"
)

// Level identifies a file level in the analysis chain.
type Level int

const (
	// GEN holds generated (truth) events.
	GEN Level = iota
	// SIM holds events after detector simulation.
	SIM
	// DST holds reconstructed events.
	DST
	// ODS holds the physics-object selection of the DST.
	ODS
	// HAT holds per-event ntuple summaries for analysis.
	HAT
	numLevels int = iota
)

var levelNames = [...]string{"GEN", "SIM", "DST", "ODS", "HAT"}

// String returns the level's conventional name.
func (l Level) String() string {
	if int(l) < len(levelNames) {
		return levelNames[l]
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// Levels returns all levels in chain order.
func Levels() []Level {
	out := make([]Level, numLevels)
	for i := range out {
		out[i] = Level(i)
	}
	return out
}

var fileMagic = [4]byte{'S', 'P', 'E', 'V'}

const fileVersion = 1

// Info describes a file without decoding its records.
type Info struct {
	Level   Level
	Records int
	Bytes   int
}

type encoder struct{ buf []byte }

func (e *encoder) u8(v uint8)    { e.buf = append(e.buf, v) }
func (e *encoder) u32(v uint32)  { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64)  { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) i32(v int32)   { e.u32(uint32(v)) }
func (e *encoder) i64(v int64)   { e.u64(uint64(v)) }
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *encoder) finish() []byte {
	e.u32(crc32.ChecksumIEEE(e.buf))
	return e.buf
}

type decoder struct {
	data []byte
	pos  int
}

func (d *decoder) need(n int) error {
	if d.pos+n > len(d.data) {
		return fmt.Errorf("hepfile: truncated file at byte %d", d.pos)
	}
	return nil
}
func (d *decoder) u8() (uint8, error) {
	if err := d.need(1); err != nil {
		return 0, err
	}
	v := d.data[d.pos]
	d.pos++
	return v, nil
}
func (d *decoder) u32() (uint32, error) {
	if err := d.need(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(d.data[d.pos:])
	d.pos += 4
	return v, nil
}
func (d *decoder) u64() (uint64, error) {
	if err := d.need(8); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(d.data[d.pos:])
	d.pos += 8
	return v, nil
}
func (d *decoder) i32() (int32, error) {
	v, err := d.u32()
	return int32(v), err
}
func (d *decoder) i64() (int64, error) {
	v, err := d.u64()
	return int64(v), err
}
func (d *decoder) f64() (float64, error) {
	v, err := d.u64()
	return math.Float64frombits(v), err
}

// openFile verifies magic, version, CRC and the level tag, returning a
// decoder positioned at the record count.
func openFile(data []byte, wantLevels ...Level) (*decoder, Level, int, error) {
	if len(data) < fileOverhead {
		return nil, 0, 0, fmt.Errorf("hepfile: %d bytes is too short to be an event file", len(data))
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, 0, 0, fmt.Errorf("hepfile: CRC mismatch — file corrupted")
	}
	d := &decoder{data: body}
	var magic [4]byte
	copy(magic[:], body[:4])
	d.pos = 4
	if magic != fileMagic {
		return nil, 0, 0, fmt.Errorf("hepfile: bad magic %q", magic)
	}
	ver, _ := d.u8()
	if ver != fileVersion {
		return nil, 0, 0, fmt.Errorf("hepfile: unsupported version %d", ver)
	}
	lv, _ := d.u8()
	level := Level(lv)
	if int(lv) >= numLevels {
		return nil, 0, 0, fmt.Errorf("hepfile: unknown level tag %d", lv)
	}
	if len(wantLevels) > 0 {
		ok := false
		for _, w := range wantLevels {
			if level == w {
				ok = true
				break
			}
		}
		if !ok {
			return nil, 0, 0, fmt.Errorf("hepfile: file is %v, expected one of %v", level, wantLevels)
		}
	}
	n, err := d.u32()
	if err != nil {
		return nil, 0, 0, err
	}
	return d, level, int(n), nil
}

// Encoded sizes: a file is a fixed header and CRC trailer around its
// records; an event record is a fixed head plus one entry per particle.
const (
	fileOverhead   = 4 + 1 + 1 + 4 + 4 // magic, version, level, count, CRC
	eventHeadSize  = 8 + 1 + 4         // ID, signal flag, particle count
	particleSize   = 4 + 4*8           // PDG, four-momentum
	recoRecordSize = 8 + 8 + 8 + 4     // ID, mass, lead pT, multiplicity
	sumRecordSize  = 8 + 8 + 8 + 4     // ID, mass, pT, N
)

// newFile starts a file whose records encode to bodySize bytes, so the
// buffer is allocated once at its final length.
func newFile(level Level, records, bodySize int) *encoder {
	e := &encoder{buf: make([]byte, 0, fileOverhead+bodySize)}
	e.buf = append(e.buf, fileMagic[:]...)
	e.u8(fileVersion)
	e.u8(uint8(level))
	e.u32(uint32(records))
	return e
}

// Stat returns file metadata after verifying integrity.
func Stat(data []byte) (Info, error) {
	_, level, n, err := openFile(data)
	if err != nil {
		return Info{}, err
	}
	return Info{Level: level, Records: n, Bytes: len(data)}, nil
}

// WriteEvents encodes GEN- or SIM-level events.
func WriteEvents(level Level, evs []hepsim.Event) ([]byte, error) {
	if level != GEN && level != SIM {
		return nil, fmt.Errorf("hepfile: level %v does not hold Event records", level)
	}
	size := len(evs) * eventHeadSize
	for i := range evs {
		size += len(evs[i].Particles) * particleSize
	}
	e := newFile(level, len(evs), size)
	for i := range evs {
		ev := &evs[i]
		e.i64(ev.ID)
		if ev.Signal {
			e.u8(1)
		} else {
			e.u8(0)
		}
		e.u32(uint32(len(ev.Particles)))
		for _, p := range ev.Particles {
			e.i32(p.PDG)
			e.f64(p.P.E)
			e.f64(p.P.Px)
			e.f64(p.P.Py)
			e.f64(p.P.Pz)
		}
	}
	return e.finish(), nil
}

// ReadEvents decodes a GEN- or SIM-level file.
func ReadEvents(data []byte) (Level, []hepsim.Event, error) {
	d, level, n, err := openFile(data, GEN, SIM)
	if err != nil {
		return 0, nil, err
	}
	evs := make([]hepsim.Event, 0, n)
	for i := 0; i < n; i++ {
		var ev hepsim.Event
		if ev.ID, err = d.i64(); err != nil {
			return 0, nil, err
		}
		sig, err := d.u8()
		if err != nil {
			return 0, nil, err
		}
		ev.Signal = sig != 0
		np, err := d.u32()
		if err != nil {
			return 0, nil, err
		}
		ev.Particles = make([]hepsim.Particle, np)
		for j := range ev.Particles {
			p := &ev.Particles[j]
			if p.PDG, err = d.i32(); err != nil {
				return 0, nil, err
			}
			if p.P.E, err = d.f64(); err != nil {
				return 0, nil, err
			}
			if p.P.Px, err = d.f64(); err != nil {
				return 0, nil, err
			}
			if p.P.Py, err = d.f64(); err != nil {
				return 0, nil, err
			}
			if p.P.Pz, err = d.f64(); err != nil {
				return 0, nil, err
			}
		}
		evs = append(evs, ev)
	}
	return level, evs, nil
}

// WriteReco encodes DST- or ODS-level reconstructed events.
func WriteReco(level Level, recs []hepsim.RecoEvent) ([]byte, error) {
	if level != DST && level != ODS {
		return nil, fmt.Errorf("hepfile: level %v does not hold RecoEvent records", level)
	}
	e := newFile(level, len(recs), len(recs)*recoRecordSize)
	for _, r := range recs {
		e.i64(r.ID)
		e.f64(r.Mass)
		e.f64(r.LeadPt)
		e.i32(r.Multiplicity)
	}
	return e.finish(), nil
}

// ReadReco decodes a DST- or ODS-level file.
func ReadReco(data []byte) (Level, []hepsim.RecoEvent, error) {
	d, level, n, err := openFile(data, DST, ODS)
	if err != nil {
		return 0, nil, err
	}
	recs := make([]hepsim.RecoEvent, 0, n)
	for i := 0; i < n; i++ {
		var r hepsim.RecoEvent
		if r.ID, err = d.i64(); err != nil {
			return 0, nil, err
		}
		if r.Mass, err = d.f64(); err != nil {
			return 0, nil, err
		}
		if r.LeadPt, err = d.f64(); err != nil {
			return 0, nil, err
		}
		if r.Multiplicity, err = d.i32(); err != nil {
			return 0, nil, err
		}
		recs = append(recs, r)
	}
	return level, recs, nil
}

// WriteSummaries encodes a HAT-level ntuple.
func WriteSummaries(sums []hepsim.Summary) ([]byte, error) {
	e := newFile(HAT, len(sums), len(sums)*sumRecordSize)
	for _, s := range sums {
		e.i64(s.ID)
		e.f64(s.Mass)
		e.f64(s.Pt)
		e.i32(s.N)
	}
	return e.finish(), nil
}

// ReadSummaries decodes a HAT-level ntuple.
func ReadSummaries(data []byte) ([]hepsim.Summary, error) {
	d, _, n, err := openFile(data, HAT)
	if err != nil {
		return nil, err
	}
	sums := make([]hepsim.Summary, 0, n)
	for i := 0; i < n; i++ {
		var s hepsim.Summary
		if s.ID, err = d.i64(); err != nil {
			return nil, err
		}
		if s.Mass, err = d.f64(); err != nil {
			return nil, err
		}
		if s.Pt, err = d.f64(); err != nil {
			return nil, err
		}
		if s.N, err = d.i32(); err != nil {
			return nil, err
		}
		sums = append(sums, s)
	}
	return sums, nil
}
