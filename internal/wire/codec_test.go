package wire

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestEncodeDecodePrimitives(t *testing.T) {
	e := NewEncoder(64)
	e.U8(7)
	e.U32(1 << 31)
	e.U64(1 << 62)
	e.I32(-42)
	e.I64(-1 << 50)
	e.Bytes32([]byte("payload"))
	e.String("hello")
	e.Ints([]int{1, -2, 3})
	e.StringSlice([]string{"a", "bb"})

	d := NewDecoder(e.Bytes())
	if d.U8() != 7 || d.U32() != 1<<31 || d.U64() != 1<<62 {
		t.Fatal("unsigned mismatch")
	}
	if d.I32() != -42 || d.I64() != -1<<50 {
		t.Fatal("signed mismatch")
	}
	if !bytes.Equal(d.Bytes32(), []byte("payload")) {
		t.Fatal("bytes mismatch")
	}
	if d.String() != "hello" {
		t.Fatal("string mismatch")
	}
	s := d.AppendInts([]int{9})
	if len(s) != 4 || s[0] != 9 || s[1] != 1 || s[2] != -2 || s[3] != 3 {
		t.Fatalf("appended ints = %v", s)
	}
	ss := d.StringSlice()
	if len(ss) != 2 || ss[0] != "a" || ss[1] != "bb" {
		t.Fatalf("string slice = %v", ss)
	}
	if d.Err() != nil {
		t.Fatalf("decoder error: %v", d.Err())
	}
	if d.Remaining() != 0 {
		t.Fatalf("remaining = %d", d.Remaining())
	}
}

func TestDecoderTruncation(t *testing.T) {
	e := NewEncoder(16)
	e.U64(12345)
	full := e.Bytes()
	for cut := 0; cut < len(full); cut++ {
		d := NewDecoder(full[:cut])
		d.U64()
		if !errors.Is(d.Err(), ErrTruncated) {
			t.Fatalf("cut=%d err=%v, want ErrTruncated", cut, d.Err())
		}
		// Sticky error: further reads keep failing and return zeros.
		if d.U32() != 0 || d.Err() == nil {
			t.Fatal("error must be sticky")
		}
	}
}

func TestDecoderRejectsHugeField(t *testing.T) {
	e := NewEncoder(8)
	e.U32(0xFFFFFFFF) // 4 GB length prefix
	d := NewDecoder(e.Bytes())
	d.Bytes32()
	if !errors.Is(d.Err(), ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", d.Err())
	}
}

func TestDecoderRejectsLyingSliceCounts(t *testing.T) {
	e := NewEncoder(8)
	e.U32(1 << 30) // claims a billion elements with no data
	d := NewDecoder(e.Bytes())
	if got := d.AppendInts(nil); !errors.Is(d.Err(), ErrTruncated) || got != nil {
		t.Fatalf("int slice err = %v, appended %d", d.Err(), len(got))
	}
	d2 := NewDecoder(e.Bytes())
	d2.StringSlice()
	if !errors.Is(d2.Err(), ErrTruncated) {
		t.Fatalf("string slice err = %v", d2.Err())
	}
}

func TestPrimitiveRoundTripProperties(t *testing.T) {
	roundTrip := func(u8 uint8, u32 uint32, u64 uint64, i64 int64, b []byte, s string) bool {
		e := NewEncoder(64)
		e.U8(u8)
		e.U32(u32)
		e.U64(u64)
		e.I64(i64)
		e.Bytes32(b)
		e.String(s)
		d := NewDecoder(e.Bytes())
		ok := d.U8() == u8 && d.U32() == u32 && d.U64() == u64 && d.I64() == i64
		ok = ok && bytes.Equal(d.Bytes32(), b) && d.String() == s
		return ok && d.Err() == nil && d.Remaining() == 0
	}
	if err := quick.Check(roundTrip, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEmptyFields(t *testing.T) {
	e := NewEncoder(8)
	e.Bytes32(nil)
	e.String("")
	e.Ints(nil)
	e.StringSlice(nil)
	d := NewDecoder(e.Bytes())
	if len(d.Bytes32()) != 0 || d.String() != "" || len(d.AppendInts(nil)) != 0 || len(d.StringSlice()) != 0 {
		t.Fatal("empty fields must round-trip empty")
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
}
