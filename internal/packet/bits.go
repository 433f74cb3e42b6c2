// Package packet implements the host-level packet model shared by the
// functional profiler, the trace generators and the runtime: a byte buffer
// with headroom, a current-header offset (the paper's head_ptr), and a
// bit-packed metadata record (§2.2, Figure 3).
//
// Protocol fields are big-endian bit slices: bit 0 of a header is the most
// significant bit of its first byte, exactly as network protocols are drawn
// in RFCs.
package packet

// ReadBits extracts the big-endian bit field [bitOff, bitOff+bits) from
// data as a zero-extended 32-bit value. bits must be 1..32 and the range
// must lie within data; violations panic (they indicate compiler bugs, not
// user errors).
func ReadBits(data []byte, bitOff, bits int) uint32 {
	if bits <= 0 || bits > 32 {
		panic("packet: ReadBits width out of range")
	}
	var v uint64
	// Gather the bytes covering the field.
	first := bitOff / 8
	last := (bitOff + bits - 1) / 8
	for i := first; i <= last; i++ {
		v = v<<8 | uint64(data[i])
	}
	// Drop trailing bits past the field, then mask.
	drop := (last+1)*8 - (bitOff + bits)
	v >>= uint(drop)
	if bits < 32 {
		v &= (1 << uint(bits)) - 1
	}
	return uint32(v)
}

// WriteBits stores the low bits of val into the big-endian bit field
// [bitOff, bitOff+bits) of data.
func WriteBits(data []byte, bitOff, bits int, val uint32) {
	if bits <= 0 || bits > 32 {
		panic("packet: WriteBits width out of range")
	}
	v := uint64(val)
	if bits < 32 {
		v &= (1 << uint(bits)) - 1
	}
	first := bitOff / 8
	last := (bitOff + bits - 1) / 8
	var cur uint64
	for i := first; i <= last; i++ {
		cur = cur<<8 | uint64(data[i])
	}
	drop := (last+1)*8 - (bitOff + bits)
	mask := (uint64(1)<<uint(bits) - 1) << uint(drop)
	cur = (cur &^ mask) | (v << uint(drop) & mask)
	for i := last; i >= first; i-- {
		data[i] = byte(cur)
		cur >>= 8
	}
}
