package capture

import "crypto/subtle"

// Keystream caches the Scramble keystream for one session key. The
// xorshift state Scramble evolves is independent of the data being
// scrambled, so the byte stream XORed into a session's packets is a
// fixed sequence per key: generate it once, extend it lazily, and apply
// it in one vectorised pass instead of re-deriving one state step per
// byte per packet. XOR and XORInto produce bytes identical to
// Scramble(key, data) by construction (see
// TestKeystreamMatchesScramble).
//
// A world keeps one Keystream, shared by every tunnel endpoint in it:
// a call re-keys it when the session key differs from the last one, so
// sharing it cannot change a byte. It is single-goroutine, like the
// world that owns it. The zero value is ready to use with any key;
// switching keys discards the cached stream.
type Keystream struct {
	key   uint32
	valid bool
	state uint64 // xorshift state after len(ks) steps
	ks    []byte
}

// keystreamChunk sizes each lazy extension: big enough that a typical
// tunnel session generates its stream once, small enough that short
// sessions waste little.
const keystreamChunk = 2048

// XOR applies the Scramble keystream for key to data in place,
// byte-identical to Scramble(key, data).
func (k *Keystream) XOR(key uint32, data []byte) {
	k.XORInto(key, data, data)
}

// XORInto writes src scrambled under key into dst, which must be at
// least len(src) long and may alias src exactly: the copy and the
// scramble in one pass, byte-identical to copying src into dst and
// then calling Scramble(key, dst[:len(src)]).
func (k *Keystream) XORInto(key uint32, dst, src []byte) {
	if !k.valid || k.key != key {
		k.key = key
		k.valid = true
		k.state = uint64(key)*0x9E3779B97F4A7C15 + 1
		k.ks = k.ks[:0]
	}
	for len(k.ks) < len(src) {
		k.extend()
	}
	subtle.XORBytes(dst, src, k.ks[:len(src)])
}

func (k *Keystream) extend() {
	state := k.state
	n := len(k.ks)
	if cap(k.ks) < n+keystreamChunk {
		grown := make([]byte, n, n+keystreamChunk)
		copy(grown, k.ks)
		k.ks = grown
	}
	for i := 0; i < keystreamChunk; i++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		k.ks = append(k.ks, byte(state))
	}
	k.state = state
}
