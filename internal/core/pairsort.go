package core

// idKey is one join pair's sort key: its two trajectory ids — minor (Q)
// word first, biased so unsigned byte order is signed integer order — and
// the pair's position in the unsorted list.
type idKey struct {
	k [2]uint64
	i int
}

// SortByIDPair returns pairs reordered ascending by (t, q) as ids reports
// them — the order a join's answer is returned in, for the engine's Pair
// and the network mode's WirePair alike. It sorts flat keys, not the pairs:
// an LSD radix sort over the sixteen key bytes that skips every byte on
// which all keys agree (ids of one dataset differ in their low two or three
// bytes), then one gather. A comparison sort over the pairs themselves
// spends its time in the swapper and, for Pair, in two pointer loads per
// comparison. Pairs with equal keys keep their relative order.
func SortByIDPair[P any](pairs []P, ids func(*P) (t, q int)) []P {
	n := len(pairs)
	if n < 2 {
		return pairs
	}
	const bias = 1 << 63
	keys, spare := make([]idKey, n), make([]idKey, n)
	var counts [16][256]int
	for i := range pairs {
		t, q := ids(&pairs[i])
		k := [2]uint64{uint64(q) ^ bias, uint64(t) ^ bias}
		keys[i] = idKey{k: k, i: i}
		for b := 0; b < 16; b++ {
			counts[b][byte(k[b>>3]>>(8*(b&7)))]++
		}
	}
	for b := 0; b < 16; b++ {
		c, word, shift := &counts[b], b>>3, 8*(b&7)
		if c[byte(keys[0].k[word]>>shift)] == n {
			continue // every key has this byte: nothing to order by
		}
		sum := 0
		for d, cnt := range c {
			c[d], sum = sum, sum+cnt
		}
		for i := range keys {
			d := byte(keys[i].k[word] >> shift)
			spare[c[d]] = keys[i]
			c[d]++
		}
		keys, spare = spare, keys
	}
	out := make([]P, n)
	for i := range keys {
		out[i] = pairs[keys[i].i]
	}
	return out
}
