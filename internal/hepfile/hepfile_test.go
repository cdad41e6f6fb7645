package hepfile

import (
	"testing"
	"testing/quick"

	"repro/internal/hepsim"
)

func sampleEvents(t *testing.T, n int) []hepsim.Event {
	t.Helper()
	g, err := hepsim.NewGenerator(hepsim.DefaultGenConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	return g.GenerateN(n)
}

func TestEventRoundTrip(t *testing.T) {
	evs := sampleEvents(t, 100)
	data, err := WriteEvents(GEN, evs)
	if err != nil {
		t.Fatal(err)
	}
	level, got, err := ReadEvents(data)
	if err != nil {
		t.Fatal(err)
	}
	if level != GEN {
		t.Fatalf("level = %v", level)
	}
	if len(got) != len(evs) {
		t.Fatalf("records = %d, want %d", len(got), len(evs))
	}
	for i := range evs {
		if got[i].ID != evs[i].ID || got[i].Signal != evs[i].Signal {
			t.Fatalf("event %d header mismatch", i)
		}
		if len(got[i].Particles) != len(evs[i].Particles) {
			t.Fatalf("event %d particle count mismatch", i)
		}
		for j := range evs[i].Particles {
			if got[i].Particles[j] != evs[i].Particles[j] {
				t.Fatalf("event %d particle %d mismatch", i, j)
			}
		}
	}
}

func TestRecoRoundTrip(t *testing.T) {
	recs := []hepsim.RecoEvent{
		{ID: 1, Mass: 29.7, LeadPt: 14.8, Multiplicity: 9},
		{ID: 2, Mass: 0, LeadPt: 1.2, Multiplicity: 1},
	}
	for _, level := range []Level{DST, ODS} {
		data, err := WriteReco(level, recs)
		if err != nil {
			t.Fatal(err)
		}
		gotLevel, got, err := ReadReco(data)
		if err != nil {
			t.Fatal(err)
		}
		if gotLevel != level {
			t.Fatalf("level = %v, want %v", gotLevel, level)
		}
		for i := range recs {
			if got[i] != recs[i] {
				t.Fatalf("%v record %d = %+v, want %+v", level, i, got[i], recs[i])
			}
		}
	}
}

func TestSummaryRoundTrip(t *testing.T) {
	sums := []hepsim.Summary{
		{ID: 10, Mass: 30.1, Pt: 15.2, N: 11},
		{ID: 11, Mass: 12.9, Pt: 3.3, N: 4},
	}
	data, err := WriteSummaries(sums)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadSummaries(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sums {
		if got[i] != sums[i] {
			t.Fatalf("summary %d = %+v, want %+v", i, got[i], sums[i])
		}
	}
}

func TestLevelEnforcement(t *testing.T) {
	if _, err := WriteEvents(DST, nil); err == nil {
		t.Error("WriteEvents accepted DST level")
	}
	if _, err := WriteReco(GEN, nil); err == nil {
		t.Error("WriteReco accepted GEN level")
	}
	// A HAT file must not decode as events.
	data, _ := WriteSummaries(nil)
	if _, _, err := ReadEvents(data); err == nil {
		t.Error("ReadEvents accepted a HAT file")
	}
	if _, _, err := ReadReco(data); err == nil {
		t.Error("ReadReco accepted a HAT file")
	}
}

func TestCorruptionDetected(t *testing.T) {
	data, _ := WriteEvents(GEN, sampleEvents(t, 10))
	for _, pos := range []int{0, 5, len(data) / 2, len(data) - 5} {
		bad := make([]byte, len(data))
		copy(bad, data)
		bad[pos] ^= 0xFF
		if _, _, err := ReadEvents(bad); err == nil {
			t.Errorf("corruption at byte %d undetected", pos)
		}
	}
}

func TestTruncationDetected(t *testing.T) {
	data, _ := WriteEvents(SIM, sampleEvents(t, 10))
	for _, cut := range []int{0, 4, 10, len(data) / 2, len(data) - 1} {
		if _, _, err := ReadEvents(data[:cut]); err == nil {
			t.Errorf("truncation at %d undetected", cut)
		}
	}
}

func TestStat(t *testing.T) {
	data, _ := WriteReco(DST, make([]hepsim.RecoEvent, 7))
	info, err := Stat(data)
	if err != nil {
		t.Fatal(err)
	}
	if info.Level != DST || info.Records != 7 || info.Bytes != len(data) {
		t.Fatalf("Stat = %+v", info)
	}
	if _, err := Stat([]byte("junk")); err == nil {
		t.Fatal("Stat accepted junk")
	}
}

func TestEmptyFiles(t *testing.T) {
	data, err := WriteEvents(GEN, nil)
	if err != nil {
		t.Fatal(err)
	}
	level, evs, err := ReadEvents(data)
	if err != nil || level != GEN || len(evs) != 0 {
		t.Fatalf("empty GEN file = %v %v %v", level, evs, err)
	}
}

func TestDeterministicEncoding(t *testing.T) {
	evs := sampleEvents(t, 20)
	a, _ := WriteEvents(GEN, evs)
	b, _ := WriteEvents(GEN, evs)
	if string(a) != string(b) {
		t.Fatal("encoding not deterministic")
	}
}

func TestLevelStrings(t *testing.T) {
	want := []string{"GEN", "SIM", "DST", "ODS", "HAT"}
	for i, l := range Levels() {
		if l.String() != want[i] {
			t.Errorf("level %d = %q, want %q", i, l.String(), want[i])
		}
	}
}

func TestSummaryProperty(t *testing.T) {
	f := func(id int64, mass, pt float64, n int32) bool {
		in := []hepsim.Summary{{ID: id, Mass: mass, Pt: pt, N: n}}
		data, err := WriteSummaries(in)
		if err != nil {
			return false
		}
		out, err := ReadSummaries(data)
		if err != nil || len(out) != 1 {
			return false
		}
		// NaN != NaN, so compare bit patterns via the encoded form.
		back, err := WriteSummaries(out)
		return err == nil && string(back) == string(data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestExactSizeEncoding checks that every writer sizes its buffer to the
// encoded length up front: a drifting size formula would show as spare
// capacity (too large) or a regrown buffer (too small).
func TestExactSizeEncoding(t *testing.T) {
	evs := sampleEvents(t, 200)
	recs, err := hepsim.ReconstructAll(evs, hepsim.Effects{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no reconstructed events to encode")
	}
	sums := make([]hepsim.Summary, len(recs))
	for i, r := range recs {
		sums[i] = hepsim.Summarize(r)
	}
	check := func(name string, out []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cap(out) != len(out) {
			t.Errorf("%s: cap %d, len %d", name, cap(out), len(out))
		}
	}
	for _, level := range []Level{GEN, SIM} {
		out, err := WriteEvents(level, evs)
		check("WriteEvents "+level.String(), out, err)
		out, err = WriteEvents(level, nil)
		check("WriteEvents empty "+level.String(), out, err)
	}
	for _, level := range []Level{DST, ODS} {
		out, err := WriteReco(level, recs)
		check("WriteReco "+level.String(), out, err)
	}
	out, err := WriteSummaries(sums)
	check("WriteSummaries", out, err)
	out, err = WriteSummaries(nil)
	check("WriteSummaries empty", out, err)
}
