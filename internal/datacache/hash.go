package datacache

// FNV-1a 64-bit parameters. Hand-rolled rather than hash/fnv so hashing a
// payload allocates no hash.Hash64 per call.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// ContentHash64 hashes a byte payload for content addressing. The zero
// value is reserved as the "no hash" sentinel on the wire, so a payload
// that happens to hash to 0 maps to 1; both peers apply the same mapping,
// which is all content addressing needs.
func ContentHash64(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	if h == 0 {
		return 1
	}
	return h
}
