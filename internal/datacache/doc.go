// Package datacache holds the data-plane reuse cache of the Device
// Manager: a content-addressed cache of resident device buffers, so
// repeated inputs such as CNN weights upload once per board. It is a
// bytes-bounded LRU structure with an explicit invalidation hook; the
// manager wires its counters into /metrics and /debug/cache.
//
// The package is dependency-free (standard library only) so both the
// client-side Remote Library and the manager can share the same content
// hash without import cycles.
package datacache
