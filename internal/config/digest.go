package config

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
)

// Digest returns a canonical content hash of the simulated configuration,
// rendered as 16 lowercase hex digits. Two GPU values digest identically
// iff every field is equal — every field of GPU is simulated hardware; a
// host-execution knob does not belong in it — regardless of how the values
// were built (preset constructor, JSON file, inline literal) and regardless
// of the struct's field declaration order: fields are hashed as sorted
// "name=value" pairs, so reordering the GPU struct never silently changes
// existing digests.
func Digest(g GPU) string {
	rv := reflect.ValueOf(g)
	rt := rv.Type()
	pairs := make([]string, 0, rt.NumField())
	for i := 0; i < rt.NumField(); i++ {
		pairs = append(pairs, fmt.Sprintf("%s=%v", rt.Field(i).Name, rv.Field(i).Interface()))
	}
	sort.Strings(pairs)
	h := fnv.New64a()
	for _, p := range pairs {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
