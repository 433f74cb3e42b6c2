package harness

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"shangrila/internal/driver"
	"shangrila/internal/ir"
	"shangrila/internal/opt/pac"
	"shangrila/internal/packet"
	"shangrila/internal/profiler"
	"shangrila/internal/rts"
)

// fieldProg is one program of the field differential: a PPF that
// decaps a pad header of pad bytes and then loads and stores the fields
// ks of a header region and of the metadata, both laid out alike: field
// f<k> of width w at bit k*stride, then a pad g<k> (q<k> in the
// metadata) filling the stride. The stride is odd, so the 32 fields start
// at all 32 in-word bit offsets; a field crosses a word boundary where
// its offset plus w passes 32.
type fieldProg struct {
	w, stride, pad int
	ks             []int
}

func newFieldProg(w, half int) fieldProg {
	fp := fieldProg{w: w, stride: w + 1 + w%2, pad: 1 + (w+half)%4}
	for k := 16 * half; k < 16*half+16; k++ {
		fp.ks = append(fp.ks, k)
	}
	return fp
}

func (fp fieldProg) String() string {
	return fmt.Sprintf("w=%d/f%d-f%d", fp.w, fp.ks[0], fp.ks[len(fp.ks)-1])
}

// Where the words after the region sit, in the inner header.
func (fp fieldProg) regionBytes() int { return 4 * fp.stride }
func (fp fieldProg) vOff() int        { return fp.regionBytes() }
func (fp fieldProg) h1Off() int       { return fp.regionBytes() + 4 }
func (fp fieldProg) h2Off() int       { return fp.regionBytes() + 8 }
func (fp fieldProg) idOff() int       { return fp.regionBytes() + 12 }
func (fp fieldProg) frameLen() int    { return fp.pad + fp.regionBytes() + 16 }

// source is the program: the PPF loads each field (hashed into h1) and
// writes it to the metadata over a pad written with v; then xors each
// metadata field with v; then loads each back (hashed with its pad into
// h2) and stores it into the header field it came from.
func (fp fieldProg) source() string {
	var b strings.Builder
	layout := func(f, g string) {
		for k := range 32 {
			fmt.Fprintf(&b, "    %s%d : %d;\n    %s%d : %d;\n", f, k, fp.w, g, k, fp.stride-fp.w)
		}
	}
	fmt.Fprintf(&b, "protocol outer {\n    pad : %d;\n    demux { %d };\n}\n", 8*fp.pad, fp.pad)
	b.WriteString("protocol fw {\n")
	layout("f", "g")
	fmt.Fprintf(&b, "    v : 32;\n    h1 : 32;\n    h2 : 32;\n    id : 32;\n    demux { %d };\n}\n", fp.regionBytes()+16)
	b.WriteString("metadata {\n")
	layout("m", "q")
	b.WriteString("}\nmodule m {\n    channel out_cc : fw;\n    ppf f(outer ph) {\n")
	b.WriteString("        fw ih = packet_decap(ph);\n        uint v = ih->v;\n        uint h = 0;\n        uint g = 0;\n")
	for _, k := range fp.ks {
		fmt.Fprintf(&b, "        uint x%d = ih->f%d;\n        h = h * 31 + x%d;\n", k, k, k)
		fmt.Fprintf(&b, "        ih->meta.q%d = v;\n        ih->meta.m%d = x%d;\n", k, k, k)
	}
	for _, k := range fp.ks {
		fmt.Fprintf(&b, "        ih->meta.m%d = ih->meta.m%d ^ v;\n", k, k)
	}
	for _, k := range fp.ks {
		fmt.Fprintf(&b, "        uint z%d = ih->meta.m%d;\n        g = g * 31 + z%d;\n", k, k, k)
		fmt.Fprintf(&b, "        g = g * 31 + ih->meta.q%d;\n        ih->f%d = z%d;\n", k, k, k)
	}
	b.WriteString("        ih->h1 = h;\n        ih->h2 = g;\n        channel_put(out_cc, ih);\n    }\n")
	b.WriteString("    wiring { rx -> f; out_cc -> tx; }\n}\n")
	return b.String()
}

// want is the frame the PPF transmits for the inner header in, computed
// with packet.ReadBits and WriteBits.
func (fp fieldProg) want(in []byte) []byte {
	out := bytes.Clone(in)
	meta := make([]byte, fp.regionBytes())
	v := binary.BigEndian.Uint32(in[fp.vOff():])
	var h, g uint32
	for _, k := range fp.ks {
		x := packet.ReadBits(in, k*fp.stride, fp.w)
		h = h*31 + x
		packet.WriteBits(meta, k*fp.stride+fp.w, fp.stride-fp.w, v)
		packet.WriteBits(meta, k*fp.stride, fp.w, x)
	}
	for _, k := range fp.ks {
		packet.WriteBits(meta, k*fp.stride, fp.w, packet.ReadBits(meta, k*fp.stride, fp.w)^v)
	}
	for _, k := range fp.ks {
		z := packet.ReadBits(meta, k*fp.stride, fp.w)
		g = g*31 + z
		g = g*31 + packet.ReadBits(meta, k*fp.stride+fp.w, fp.stride-fp.w)
		packet.WriteBits(out, k*fp.stride, fp.w, z)
	}
	binary.BigEndian.PutUint32(out[fp.h1Off():], h)
	binary.BigEndian.PutUint32(out[fp.h2Off():], g)
	return out
}

// bitName names the field or pad of the region that holds bit.
func (fp fieldProg) bitName(bit int) string {
	k, at := bit/fp.stride, bit%fp.stride
	if at < fp.w {
		return fmt.Sprintf("f%d", k)
	}
	return fmt.Sprintf("g%d (the pad after f%d)", k, k)
}

// diff describes how the transmitted inner header got differs from want.
func (fp fieldProg) diff(got, want []byte) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d-byte frame, want %d", len(got), len(want))
	}
	var d []string
	for bit := 0; bit < 8*fp.regionBytes(); bit++ {
		if packet.ReadBits(got, bit, 1) != packet.ReadBits(want, bit, 1) {
			d = append(d, "header "+fp.bitName(bit))
			break
		}
	}
	for _, w := range []struct {
		name string
		off  int
	}{{"h1 (the header loads' hash)", fp.h1Off()}, {"h2 (the metadata loads' hash)", fp.h2Off()}, {"v", fp.vOff()}} {
		if g, x := binary.BigEndian.Uint32(got[w.off:]), binary.BigEndian.Uint32(want[w.off:]); g != x {
			d = append(d, fmt.Sprintf("%s = %#x, want %#x", w.name, g, x))
		}
	}
	return strings.Join(d, "; ")
}

// fieldPatterns are the packets' region backgrounds and v words: every
// stored value is x ^ v, so v = all ones stores all ones over zeros and
// zeros over ones, where a store that leaves a neighbour's bits or the
// field's old bits shows.
var fieldPatterns = []struct {
	bg int // byte of the region, or -1 for seeded random bytes
	v  uint32
}{
	{0x00, 0xffffffff}, {0xff, 0xffffffff}, {0xff, 0}, {0xaa, 0x55555555},
	{0x55, 0xaaaaaaaa}, {-1, 0x80000001}, {-1, 0x7ffffffe}, {-1, 0x9e3779b9},
}

// trace is one packet per pattern; a packet's id word is its index.
func (fp fieldProg) trace(metaBytes int) []*packet.Packet {
	r := rand.New(rand.NewPCG(uint64(fp.w), uint64(fp.ks[0])))
	var trc []*packet.Packet
	for i, pat := range fieldPatterns {
		wire := make([]byte, fp.frameLen())
		for j := range wire {
			wire[j] = byte(r.Uint32())
			if pat.bg >= 0 && j >= fp.pad {
				wire[j] = byte(pat.bg)
			}
		}
		inner := wire[fp.pad:]
		binary.BigEndian.PutUint32(inner[fp.vOff():], pat.v)
		binary.BigEndian.PutUint32(inner[fp.idOff():], uint32(i))
		trc = append(trc, packet.New(wire, metaBytes))
	}
	return trc
}

// TestFieldDifferential holds the field loads and stores both emitters
// make — codegen's at BASE, PAC's combined bursts at +PAC — to
// packet.ReadBits and WriteBits, the byte-level reference: every width
// 1–32 at every in-word start offset 0–31, in a header read through a
// decapped handle and in the metadata, each program run on the host
// executor and on one simulated ME. The BASE leg's host run is the
// lowered IR; the +PAC leg's is PAC's output.
func TestFieldDifferential(t *testing.T) {
	for w := 1; w <= 32; w++ {
		for half := range 2 {
			fp := newFieldProg(w, half)
			src := fp.source()
			prog, err := driver.LowerSource("field.baker", src)
			if err != nil {
				t.Fatalf("%v: %v", fp, err)
			}
			trc := fp.trace(prog.Types.Metadata.Bytes)
			t.Run("base/"+fp.String(), func(t *testing.T) {
				fieldHost(t, fp, prog, trc)
				fieldME(t, fp, prog, trc, driver.LevelBase)
			})
			t.Run("pac/"+fp.String(), func(t *testing.T) {
				pp := prog.Freeze()
				if st := pac.Run(pp); st.LoadClusters == 0 || st.StoreClusters == 0 {
					t.Fatalf("PAC combined %d load and %d store clusters, want both", st.LoadClusters, st.StoreClusters)
				}
				fieldHost(t, fp, pp, trc)
				fieldME(t, fp, prog, trc, driver.LevelPAC)
			})
		}
	}
}

// fieldCheck compares one transmitted inner header with fp.want of the
// packet its id names.
func fieldCheck(t *testing.T, fp fieldProg, side string, trc []*packet.Packet, got []byte) int {
	t.Helper()
	if len(got) != fp.regionBytes()+16 {
		t.Fatalf("%s transmitted a %d-byte frame, want %d", side, len(got), fp.regionBytes()+16)
	}
	id := int(binary.BigEndian.Uint32(got[fp.idOff():]))
	if id >= len(trc) {
		t.Fatalf("%s transmitted a frame with id %d", side, id)
	}
	if want := fp.want(trc[id].Bytes()[fp.pad:]); !bytes.Equal(got, want) {
		t.Errorf("%s, packet %d (background %#x, v %#x): %s", side, id, fieldPatterns[id].bg, fieldPatterns[id].v, fp.diff(got, want))
	}
	return id
}

// fieldHost runs the trace through prog on the host session.
func fieldHost(t *testing.T, fp fieldProg, prog *ir.Program, trc []*packet.Packet) {
	sess, err := profiler.NewSession(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range trc {
		if err := sess.Inject(p.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	if len(sess.Out) != len(trc) {
		t.Fatalf("host transmitted %d frames for %d packets", len(sess.Out), len(trc))
	}
	for _, o := range sess.Out {
		fieldCheck(t, fp, "host", trc, o.P.Bytes()[o.Head:])
	}
}

// fieldME compiles prog at lvl and runs the trace on one ME.
func fieldME(t *testing.T, fp fieldProg, prog *ir.Program, trc []*packet.Packet, lvl driver.Level) {
	res, err := driver.CompileIR(prog, driver.Config{Level: lvl, ProfileTrace: trc})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Image.XScale) != 0 {
		t.Fatal("the PPF was aggregated to the XScale, not an ME")
	}
	if lvl >= driver.LevelPAC && (res.Report.PAC == nil || res.Report.PAC.StoreClusters == 0) {
		t.Fatal("PAC combined no store cluster in the ME's code")
	}
	rt, err := rts.New(res.Image, res.Prog, trc, rts.Options{NumMEs: 1, CaptureLimit: 4 * len(trc)})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	checked := 0
	for cycles := 0; len(seen) < len(trc) && cycles < 4_000_000; cycles += 100_000 {
		if err := rt.Run(100_000); err != nil {
			t.Fatal(err)
		}
		for ; checked < len(rt.TxCapture); checked++ {
			seen[fieldCheck(t, fp, "ME", trc, rt.TxCapture[checked].Frame)] = true
		}
	}
	if len(seen) < len(trc) {
		t.Fatalf("the ME transmitted %d of %d packets", len(seen), len(trc))
	}
}
