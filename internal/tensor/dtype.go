package tensor

import (
	"fmt"
	"unsafe"
)

// DType selects the element width of a compiled numeric path. The public
// tensor API stays float64 (Dense); F32 instantiates the compiled-plan
// internals (internal/fuse) over float32 buffers, halving memory traffic
// on every bandwidth-bound op. The zero value is F64, so every
// existing call site keeps its bitwise-identical float64 behavior.
type DType uint8

const (
	// F64 is the default double-precision path.
	F64 DType = iota
	// F32 is the single-precision path used by f32-compiled plans.
	F32
)

// Size returns the element width in bytes (8 for F64, 4 for F32), the
// factor the roofline byte accounting and the α-β wire model scale by.
func (d DType) Size() int64 {
	if d == F32 {
		return 4
	}
	return 8
}

// String returns the CLI spelling ("f64" / "f32").
func (d DType) String() string {
	if d == F32 {
		return "f32"
	}
	return "f64"
}

// ParseDType parses the CLI spelling accepted by the -dtype flag.
func ParseDType(s string) (DType, error) {
	switch s {
	case "f64", "float64", "fp64", "":
		return F64, nil
	case "f32", "float32", "fp32":
		return F32, nil
	}
	return F64, fmt.Errorf("tensor: unknown dtype %q (want f32 or f64)", s)
}

// Float is the element type of a compiled plan's buffers: the Go type
// behind a DType.
type Float interface{ float32 | float64 }

// DTypeOf returns the DType whose elements are E.
func DTypeOf[E Float]() DType {
	if unsafe.Sizeof(E(0)) == 4 {
		return F32
	}
	return F64
}

// Floats32To64 widens src into dst (equal lengths).
func Floats32To64(dst []float64, src []float32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: Floats32To64 length mismatch %d vs %d", len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] = float64(v)
	}
}

// Floats64To32 rounds src into dst (equal lengths).
func Floats64To32(dst []float32, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: Floats64To32 length mismatch %d vs %d", len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] = float32(v)
	}
}
