//! Vendored, dependency-free shim for the subset of the `rand_chacha` API
//! used by this workspace: counter-mode ChaCha generators with explicit
//! stream selection.
//!
//! The replication engine (`crates/engine`) keys one independent random
//! stream per `(scenario, replication)` pair so that results are bit-for-bit
//! reproducible regardless of how work is scheduled across threads. ChaCha
//! is the natural fit: the state is `(key, counter, stream)` and any stream
//! can be positioned independently of every other.
//!
//! # State layout
//!
//! This is Bernstein's original ChaCha, as upstream `rand_chacha` uses it,
//! not RFC 8439's IETF variant. State words 0–3 hold the constants, 4–11
//! the 256-bit key, 12–13 a 64-bit block counter and 14–15 a 64-bit stream
//! id; RFC 8439 splits words 12–15 into a 32-bit counter and a 96-bit nonce
//! instead. The quarter round and its schedule are the same, so stream 0
//! with a counter below 2^32 gives RFC 8439's keystream for an all-zero
//! nonce. The number of double rounds is a type parameter. The generator is
//! **not** reviewed for cryptographic use; this workspace relies only on
//! its statistical quality.
//!
//! # Sixteen-block refill
//!
//! A refill computes blocks c to c+15 into a 256-word buffer, and the
//! words are written out block after block, so the keystream is word for
//! word the one a block-at-a-time generator produces. The CPU alone picks
//! how the blocks are computed; no option or build setting does:
//!
//! * **AVX-512**, when `is_x86_feature_detected!("avx512f")` holds: all
//!   sixteen blocks run side by side in sixteen 512-bit registers. The
//!   register for state word w holds that word of every block, lane l
//!   belonging to block c+l, so every quarter round is sixteen-wide vector
//!   arithmetic with the native lane rotate. A 16 × 16 transpose in
//!   registers then turns the word-major rows into whole blocks.
//! * **SSE2**, on every other x86_64 CPU: four passes of four blocks in
//!   sixteen 128-bit registers, laid out the same way four lanes wide.
//! * **Scalar**, on other targets: the block function one block at a time.
//!   It is also the reference the tests compare both vector paths against.
//!
//! The buffer is 1 KB, zeroed when a generator is seeded; a fresh or
//! re-streamed generator computes its first refill on its first draw.
//!
//! # The two `unsafe` calls
//!
//! Each vector path is a `#[target_feature]` function. That makes the
//! intrinsics inside it safe to call, but makes calling the function
//! itself `unsafe`. The crate denies `unsafe_code`, allows it on the two
//! functions that make these calls (`sse2::refill` and `avx512::refill`),
//! and documents each call with a `// SAFETY:` comment: SSE2 is part of the
//! x86_64 baseline, and the AVX-512 call sits behind the runtime check for
//! AVX-512F. Everything else, the transposes and the writes to the buffer
//! included, is safe code.

#![deny(missing_docs)]
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

use rand::{RngCore, SeedableRng};

/// Words in one ChaCha block.
const BLOCK_WORDS: usize = 16;
/// Blocks computed per refill.
const BUF_BLOCKS: usize = 16;
/// Words in the output buffer.
const BUF_WORDS: usize = BLOCK_WORDS * BUF_BLOCKS;

/// ChaCha with `DR` double rounds (so `ChaChaRng<6>` is ChaCha12).
///
/// Two generators are equal when they share the key and the stream and
/// stand at the same word of it, as in upstream `rand_chacha`; the words
/// buffered by earlier draws play no part.
#[derive(Debug, Clone)]
pub struct ChaChaRng<const DR: usize> {
    /// Key words (state words 4..12).
    key: [u32; 8],
    /// 64-bit block counter (state words 12..14) of the block after
    /// `buffer`.
    counter: u64,
    /// 64-bit stream id (state words 14..16).
    stream: u64,
    /// Blocks `counter - 16` to `counter - 1`, in order.
    buffer: [u32; BUF_WORDS],
    /// Next unread word in `buffer`; `BUF_WORDS` means "refill required".
    index: usize,
}

/// ChaCha with 8 rounds.
pub type ChaCha8Rng = ChaChaRng<4>;
/// ChaCha with 12 rounds (the default tier rand itself uses for `StdRng`).
pub type ChaCha12Rng = ChaChaRng<6>;
/// ChaCha with the full 20 rounds.
pub type ChaCha20Rng = ChaChaRng<10>;

const CHACHA_CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

impl<const DR: usize> ChaChaRng<DR> {
    /// Selects the independent stream identified by `stream`, restarting it
    /// from its first block.
    pub fn set_stream(&mut self, stream: u64) {
        self.stream = stream;
        self.counter = 0;
        self.index = BUF_WORDS;
    }

    /// The current stream id.
    #[must_use]
    pub fn get_stream(&self) -> u64 {
        self.stream
    }

    /// Index of the next word within the stream (modulo the 2^64-block
    /// period of the counter).
    fn word_pos(&self) -> u128 {
        let first_block = self.counter.wrapping_sub(BUF_BLOCKS as u64);
        let block = first_block.wrapping_add((self.index / BLOCK_WORDS) as u64);
        u128::from(block) * BLOCK_WORDS as u128 + (self.index % BLOCK_WORDS) as u128
    }

    // Out of line, so the draws inlined into every caller stay small; it
    // runs once per 128 `u64`s.
    #[inline(never)]
    fn refill(&mut self) {
        refill_blocks::<DR>(&self.key, self.counter, self.stream, &mut self.buffer);
        self.counter = self.counter.wrapping_add(BUF_BLOCKS as u64);
        self.index = 0;
    }

    #[inline]
    fn next_word(&mut self) -> u32 {
        if self.index >= BUF_WORDS {
            self.refill();
        }
        let word = self.buffer[self.index];
        self.index += 1;
        word
    }
}

impl<const DR: usize> PartialEq for ChaChaRng<DR> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.stream == other.stream && self.word_pos() == other.word_pos()
    }
}

impl<const DR: usize> Eq for ChaChaRng<DR> {}

impl<const DR: usize> RngCore for ChaChaRng<DR> {
    fn next_u32(&mut self) -> u32 {
        self.next_word()
    }

    fn next_u64(&mut self) -> u64 {
        let i = self.index;
        if i + 1 < BUF_WORDS {
            // Both words are buffered: no refill test per word.
            self.index = i + 2;
            u64::from(self.buffer[i]) | (u64::from(self.buffer[i + 1]) << 32)
        } else {
            let lo = u64::from(self.next_word());
            let hi = u64::from(self.next_word());
            (hi << 32) | lo
        }
    }
}

impl<const DR: usize> SeedableRng for ChaChaRng<DR> {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut key = [0u32; 8];
        for (i, word) in key.iter_mut().enumerate() {
            let mut bytes = [0u8; 4];
            bytes.copy_from_slice(&seed[i * 4..(i + 1) * 4]);
            *word = u32::from_le_bytes(bytes);
        }
        ChaChaRng {
            key,
            counter: 0,
            stream: 0,
            buffer: [0; BUF_WORDS],
            index: BUF_WORDS,
        }
    }
}

/// Fills `out` with blocks `counter` to `counter + 15` (wrapping), in order:
/// sixteen at a time in AVX-512 registers when the CPU has AVX-512F, four
/// at a time in SSE2 registers otherwise.
#[cfg(target_arch = "x86_64")]
fn refill_blocks<const DR: usize>(
    key: &[u32; 8],
    counter: u64,
    stream: u64,
    out: &mut [u32; BUF_WORDS],
) {
    if !avx512::refill::<DR>(key, counter, stream, out) {
        sse2::refill::<DR>(key, counter, stream, out);
    }
}

/// Fills `out` with blocks `counter` to `counter + 15` (wrapping), in order.
#[cfg(not(target_arch = "x86_64"))]
fn refill_blocks<const DR: usize>(
    key: &[u32; 8],
    counter: u64,
    stream: u64,
    out: &mut [u32; BUF_WORDS],
) {
    scalar::blocks::<DR>(key, counter, stream, out);
}

/// The block function one block at a time: the refill on targets other than
/// x86_64, and the reference the vector refills are tested against.
#[cfg(any(test, not(target_arch = "x86_64")))]
mod scalar {
    use super::{BLOCK_WORDS, CHACHA_CONSTANTS};

    fn quarter_round(state: &mut [u32; BLOCK_WORDS], a: usize, b: usize, c: usize, d: usize) {
        state[a] = state[a].wrapping_add(state[b]);
        state[d] = (state[d] ^ state[a]).rotate_left(16);
        state[c] = state[c].wrapping_add(state[d]);
        state[b] = (state[b] ^ state[c]).rotate_left(12);
        state[a] = state[a].wrapping_add(state[b]);
        state[d] = (state[d] ^ state[a]).rotate_left(8);
        state[c] = state[c].wrapping_add(state[d]);
        state[b] = (state[b] ^ state[c]).rotate_left(7);
    }

    /// One block of the keystream.
    fn block<const DR: usize>(key: &[u32; 8], counter: u64, stream: u64) -> [u32; BLOCK_WORDS] {
        let mut state = [0u32; BLOCK_WORDS];
        state[..4].copy_from_slice(&CHACHA_CONSTANTS);
        state[4..12].copy_from_slice(key);
        state[12] = counter as u32;
        state[13] = (counter >> 32) as u32;
        state[14] = stream as u32;
        state[15] = (stream >> 32) as u32;

        let mut working = state;
        for _ in 0..DR {
            // Column rounds.
            quarter_round(&mut working, 0, 4, 8, 12);
            quarter_round(&mut working, 1, 5, 9, 13);
            quarter_round(&mut working, 2, 6, 10, 14);
            quarter_round(&mut working, 3, 7, 11, 15);
            // Diagonal rounds.
            quarter_round(&mut working, 0, 5, 10, 15);
            quarter_round(&mut working, 1, 6, 11, 12);
            quarter_round(&mut working, 2, 7, 8, 13);
            quarter_round(&mut working, 3, 4, 9, 14);
        }
        for (out, init) in working.iter_mut().zip(state.iter()) {
            *out = out.wrapping_add(*init);
        }
        working
    }

    /// Blocks `counter` onward (wrapping), in order, as many as `out` holds.
    pub(crate) fn blocks<const DR: usize>(
        key: &[u32; 8],
        counter: u64,
        stream: u64,
        out: &mut [u32],
    ) {
        for (i, words) in out.chunks_exact_mut(BLOCK_WORDS).enumerate() {
            words.copy_from_slice(&block::<DR>(key, counter.wrapping_add(i as u64), stream));
        }
    }
}

/// The block function on four consecutive blocks at once, one block per
/// lane of sixteen SSE2 registers.
#[cfg(target_arch = "x86_64")]
mod sse2 {
    use super::{BLOCK_WORDS, BUF_WORDS, CHACHA_CONSTANTS};
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_cvtsi128_si64, _mm_or_si128, _mm_set1_epi32, _mm_set_epi32,
        _mm_shufflehi_epi16, _mm_shufflelo_epi16, _mm_slli_epi32, _mm_srli_epi32,
        _mm_unpackhi_epi32, _mm_unpackhi_epi64, _mm_unpacklo_epi32, _mm_xor_si128,
    };

    /// Words in the four blocks of one pass.
    const PASS_WORDS: usize = 4 * BLOCK_WORDS;

    /// Fills `out` with blocks `counter` to `counter + 15` (wrapping), in
    /// order, in four passes of four blocks.
    #[allow(unsafe_code)]
    pub(crate) fn refill<const DR: usize>(
        key: &[u32; 8],
        counter: u64,
        stream: u64,
        out: &mut [u32; BUF_WORDS],
    ) {
        let (passes, _) = out.as_chunks_mut::<PASS_WORDS>();
        for (i, pass) in passes.iter_mut().enumerate() {
            let first = counter.wrapping_add((4 * i) as u64);
            // SAFETY: `blocks` needs no CPU feature beyond SSE2, and SSE2 is
            // part of the x86_64 baseline: every CPU that runs x86_64 code
            // has it.
            unsafe { blocks::<DR>(key, first, stream, pass) }
        }
    }

    /// Rotates every 32-bit lane left by `L` bits; `R` must be `32 - L`.
    /// SSE2 has no vector rotate.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn rotate_left<const L: i32, const R: i32>(x: __m128i) -> __m128i {
        _mm_or_si128(_mm_slli_epi32::<L>(x), _mm_srli_epi32::<R>(x))
    }

    /// Rotates every 32-bit lane left by 16 bits by swapping its halves.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn rotate_left_16(x: __m128i) -> __m128i {
        const SWAP_HALVES: i32 = 0b10_11_00_01;
        _mm_shufflehi_epi16::<SWAP_HALVES>(_mm_shufflelo_epi16::<SWAP_HALVES>(x))
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn quarter_round(x: &mut [__m128i; BLOCK_WORDS], a: usize, b: usize, c: usize, d: usize) {
        x[a] = _mm_add_epi32(x[a], x[b]);
        x[d] = rotate_left_16(_mm_xor_si128(x[d], x[a]));
        x[c] = _mm_add_epi32(x[c], x[d]);
        x[b] = rotate_left::<12, 20>(_mm_xor_si128(x[b], x[c]));
        x[a] = _mm_add_epi32(x[a], x[b]);
        x[d] = rotate_left::<8, 24>(_mm_xor_si128(x[d], x[a]));
        x[c] = _mm_add_epi32(x[c], x[d]);
        x[b] = rotate_left::<7, 25>(_mm_xor_si128(x[b], x[c]));
    }

    /// Blocks `counter` to `counter + 3` (wrapping), in order.
    #[target_feature(enable = "sse2")]
    fn blocks<const DR: usize>(
        key: &[u32; 8],
        counter: u64,
        stream: u64,
        out: &mut [u32; PASS_WORDS],
    ) {
        // Lane l of every register belongs to block `counter + l`; the 64-bit
        // additions carry into word 13 and wrap exactly as the scalar
        // counter does.
        let lane = [0, 1, 2, 3].map(|l| counter.wrapping_add(l));
        let (lo, hi) = (lane.map(|c| c as i32), lane.map(|c| (c >> 32) as i32));
        let mut init = [_mm_set1_epi32(0); BLOCK_WORDS];
        for (word, constant) in init.iter_mut().zip(CHACHA_CONSTANTS) {
            *word = _mm_set1_epi32(constant as i32);
        }
        for (word, key_word) in init[4..12].iter_mut().zip(key) {
            *word = _mm_set1_epi32(*key_word as i32);
        }
        // `_mm_set_epi32` takes lanes 3 to 0.
        init[12] = _mm_set_epi32(lo[3], lo[2], lo[1], lo[0]);
        init[13] = _mm_set_epi32(hi[3], hi[2], hi[1], hi[0]);
        init[14] = _mm_set1_epi32(stream as i32);
        init[15] = _mm_set1_epi32((stream >> 32) as i32);

        let mut x = init;
        for _ in 0..DR {
            // Column rounds.
            quarter_round(&mut x, 0, 4, 8, 12);
            quarter_round(&mut x, 1, 5, 9, 13);
            quarter_round(&mut x, 2, 6, 10, 14);
            quarter_round(&mut x, 3, 7, 11, 15);
            // Diagonal rounds.
            quarter_round(&mut x, 0, 5, 10, 15);
            quarter_round(&mut x, 1, 6, 11, 12);
            quarter_round(&mut x, 2, 7, 8, 13);
            quarter_round(&mut x, 3, 4, 9, 14);
        }
        for (word, start) in x.iter_mut().zip(init) {
            *word = _mm_add_epi32(*word, start);
        }

        // Interleaving words 2k and 2k+1 yields their pair for blocks 0
        // and 1 (`low`) and for blocks 2 and 3 (`high`), one 64-bit half
        // per block; each half is written to its block's place in `out`.
        for k in 0..BLOCK_WORDS / 2 {
            let low = _mm_unpacklo_epi32(x[2 * k], x[2 * k + 1]);
            let high = _mm_unpackhi_epi32(x[2 * k], x[2 * k + 1]);
            let pairs = [
                _mm_cvtsi128_si64(low),
                _mm_cvtsi128_si64(_mm_unpackhi_epi64(low, low)),
                _mm_cvtsi128_si64(high),
                _mm_cvtsi128_si64(_mm_unpackhi_epi64(high, high)),
            ];
            for (block, pair) in pairs.into_iter().enumerate() {
                let at = block * BLOCK_WORDS + 2 * k;
                out[at] = pair as u32;
                out[at + 1] = (pair as u64 >> 32) as u32;
            }
        }
    }
}

/// The block function on sixteen consecutive blocks at once, one block per
/// lane of sixteen AVX-512 registers.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{BLOCK_WORDS, BUF_WORDS, CHACHA_CONSTANTS};
    use core::arch::x86_64::{
        __m512i, _mm512_add_epi32, _mm512_cmplt_epu32_mask, _mm512_extracti32x4_epi32,
        _mm512_mask_add_epi32, _mm512_rol_epi32, _mm512_set1_epi32, _mm512_setr_epi32,
        _mm512_shuffle_i32x4, _mm512_unpackhi_epi32, _mm512_unpackhi_epi64, _mm512_unpacklo_epi32,
        _mm512_unpacklo_epi64, _mm512_xor_si512, _mm_cvtsi128_si64, _mm_extract_epi64,
    };

    /// Fills `out` with blocks `counter` to `counter + 15` (wrapping), in
    /// order, if the CPU has AVX-512F; returns whether it did.
    #[allow(unsafe_code)]
    pub(crate) fn refill<const DR: usize>(
        key: &[u32; 8],
        counter: u64,
        stream: u64,
        out: &mut [u32; BUF_WORDS],
    ) -> bool {
        let detected = std::arch::is_x86_feature_detected!("avx512f");
        if detected {
            // SAFETY: `blocks` enables AVX-512F and no other feature, and
            // the check above found it on this CPU.
            unsafe { blocks::<DR>(key, counter, stream, out) }
        }
        detected
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn quarter_round(x: &mut [__m512i; BLOCK_WORDS], a: usize, b: usize, c: usize, d: usize) {
        x[a] = _mm512_add_epi32(x[a], x[b]);
        x[d] = _mm512_rol_epi32::<16>(_mm512_xor_si512(x[d], x[a]));
        x[c] = _mm512_add_epi32(x[c], x[d]);
        x[b] = _mm512_rol_epi32::<12>(_mm512_xor_si512(x[b], x[c]));
        x[a] = _mm512_add_epi32(x[a], x[b]);
        x[d] = _mm512_rol_epi32::<8>(_mm512_xor_si512(x[d], x[a]));
        x[c] = _mm512_add_epi32(x[c], x[d]);
        x[b] = _mm512_rol_epi32::<7>(_mm512_xor_si512(x[b], x[c]));
    }

    /// Writes the sixteen 32-bit lanes of `x` to `out`, lane 0 first.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn write(x: __m512i, out: &mut [u32; BLOCK_WORDS]) {
        let quarters = [
            _mm512_extracti32x4_epi32::<0>(x),
            _mm512_extracti32x4_epi32::<1>(x),
            _mm512_extracti32x4_epi32::<2>(x),
            _mm512_extracti32x4_epi32::<3>(x),
        ];
        for (quarter, words) in quarters.into_iter().zip(out.chunks_exact_mut(4)) {
            let pairs = [_mm_cvtsi128_si64(quarter), _mm_extract_epi64::<1>(quarter)];
            for (pair, words) in pairs.into_iter().zip(words.chunks_exact_mut(2)) {
                words[0] = pair as u32;
                words[1] = (pair as u64 >> 32) as u32;
            }
        }
    }

    /// Blocks `counter` to `counter + 15` (wrapping), in order. Only for a
    /// CPU with AVX-512F, which [`refill`] checks before it calls this.
    #[target_feature(enable = "avx512f")]
    fn blocks<const DR: usize>(
        key: &[u32; 8],
        counter: u64,
        stream: u64,
        out: &mut [u32; BUF_WORDS],
    ) {
        let mut init = [_mm512_set1_epi32(0); BLOCK_WORDS];
        for (word, constant) in init.iter_mut().zip(CHACHA_CONSTANTS) {
            *word = _mm512_set1_epi32(constant as i32);
        }
        for (word, key_word) in init[4..12].iter_mut().zip(key) {
            *word = _mm512_set1_epi32(*key_word as i32);
        }
        // Lane l of every register belongs to block `counter + l`. A lane
        // whose low counter word wraps past 2^32 carries one into word 13,
        // and the high word wraps too, exactly as the scalar counter does.
        let low = _mm512_set1_epi32(counter as i32);
        let lanes = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        init[12] = _mm512_add_epi32(low, lanes);
        let carried = _mm512_cmplt_epu32_mask(init[12], low);
        let high = _mm512_set1_epi32((counter >> 32) as i32);
        init[13] = _mm512_mask_add_epi32(high, carried, high, _mm512_set1_epi32(1));
        init[14] = _mm512_set1_epi32(stream as i32);
        init[15] = _mm512_set1_epi32((stream >> 32) as i32);

        let mut x = init;
        for _ in 0..DR {
            // Column rounds.
            quarter_round(&mut x, 0, 4, 8, 12);
            quarter_round(&mut x, 1, 5, 9, 13);
            quarter_round(&mut x, 2, 6, 10, 14);
            quarter_round(&mut x, 3, 7, 11, 15);
            // Diagonal rounds.
            quarter_round(&mut x, 0, 5, 10, 15);
            quarter_round(&mut x, 1, 6, 11, 12);
            quarter_round(&mut x, 2, 7, 8, 13);
            quarter_round(&mut x, 3, 4, 9, 14);
        }
        for (word, start) in x.iter_mut().zip(init) {
            *word = _mm512_add_epi32(*word, start);
        }

        // Transpose the 16 × 16 word matrix in three steps, so that
        // register b ends up holding the sixteen words of block b. Within
        // each 128-bit quarter q (blocks 4q to 4q+3), interleaving 32-bit
        // and then 64-bit halves puts words 4i to 4i+3 of block 4q+r into
        // quarter q of `y[4i + r]`.
        let mut pairs = x;
        for k in 0..BLOCK_WORDS / 2 {
            pairs[2 * k] = _mm512_unpacklo_epi32(x[2 * k], x[2 * k + 1]);
            pairs[2 * k + 1] = _mm512_unpackhi_epi32(x[2 * k], x[2 * k + 1]);
        }
        let mut y = pairs;
        for i in 0..BLOCK_WORDS / 4 {
            let p = &pairs[4 * i..4 * i + 4];
            y[4 * i] = _mm512_unpacklo_epi64(p[0], p[2]);
            y[4 * i + 1] = _mm512_unpackhi_epi64(p[0], p[2]);
            y[4 * i + 2] = _mm512_unpacklo_epi64(p[1], p[3]);
            y[4 * i + 3] = _mm512_unpackhi_epi64(p[1], p[3]);
        }
        // Gathering quarter q of y[r], y[4 + r], y[8 + r] and y[12 + r]
        // gives block 4q + r whole.
        // Quarters 0 and 1, then 2 and 3, of the first and second input.
        const LOW_HALVES: i32 = 0b01_00_01_00;
        const HIGH_HALVES: i32 = 0b11_10_11_10;
        // Quarters 0 and 2, then 1 and 3, of the first and second input.
        const EVEN_QUARTERS: i32 = 0b10_00_10_00;
        const ODD_QUARTERS: i32 = 0b11_01_11_01;
        let (blocks, _) = out.as_chunks_mut::<BLOCK_WORDS>();
        for r in 0..4 {
            let (a, b, c, d) = (y[r], y[4 + r], y[8 + r], y[12 + r]);
            let ab_low = _mm512_shuffle_i32x4::<LOW_HALVES>(a, b);
            let ab_high = _mm512_shuffle_i32x4::<HIGH_HALVES>(a, b);
            let cd_low = _mm512_shuffle_i32x4::<LOW_HALVES>(c, d);
            let cd_high = _mm512_shuffle_i32x4::<HIGH_HALVES>(c, d);
            write(
                _mm512_shuffle_i32x4::<EVEN_QUARTERS>(ab_low, cd_low),
                &mut blocks[r],
            );
            write(
                _mm512_shuffle_i32x4::<ODD_QUARTERS>(ab_low, cd_low),
                &mut blocks[4 + r],
            );
            write(
                _mm512_shuffle_i32x4::<EVEN_QUARTERS>(ab_high, cd_high),
                &mut blocks[8 + r],
            );
            write(
                _mm512_shuffle_i32x4::<ODD_QUARTERS>(ab_high, cd_high),
                &mut blocks[12 + r],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;

    #[test]
    fn chacha20_matches_known_keystream() {
        // Canonical ChaCha20 vector: all-zero key, zero counter, zero nonce
        // produces the keystream 76 b8 e0 ad a0 f1 3d 90 … (little-endian
        // words 0xade0b876, 0x903df1a0). Word 15 ends RFC 8439 test vector
        // A.1 #1 (block 0) and word 16 starts A.1 #2 (block 1).
        let mut rng = ChaCha20Rng::from_seed([0u8; 32]);
        let words: Vec<u32> = (0..17).map(|_| rng.next_u32()).collect();
        assert_eq!((words[0], words[1]), (0xade0_b876, 0x903d_f1a0));
        assert_eq!((words[15], words[16]), (0x8665_eeb2, 0xbee7_079f));
    }

    /// Key bytes 0, 1, …, 31.
    fn counting_key() -> [u8; 32] {
        core::array::from_fn(|i| i as u8)
    }

    /// Keystream words at the first word, the first block edge (15–16),
    /// the four-block edge (63–65) and the refill edge (255–257).
    fn edge_words<const DR: usize>(mut rng: ChaChaRng<DR>) -> [u32; 9] {
        let words: Vec<u32> = (0..258).map(|_| rng.next_u32()).collect();
        [0, 15, 16, 63, 64, 65, 255, 256, 257].map(|i| words[i])
    }

    fn keyed<const DR: usize>(stream: u64) -> ChaChaRng<DR> {
        let mut rng = ChaChaRng::from_seed(counting_key());
        rng.set_stream(stream);
        rng
    }

    /// The first two words after switching streams 21 words into a buffer.
    fn restreamed<const DR: usize>() -> [u32; 2] {
        let mut rng = keyed::<DR>(0);
        for _ in 0..21 {
            rng.next_u32();
        }
        rng.set_stream(7);
        [rng.next_u32(), rng.next_u32()]
    }

    /// After one `next_u32`, the 8th `next_u64` spans words 15–16, the
    /// 32nd spans words 63–64 and the 128th words 255–256 across the
    /// refill; the 33rd reads 65–66.
    fn straddling<const DR: usize>() -> [u64; 4] {
        let mut rng = keyed::<DR>(0);
        rng.next_u32();
        let pairs: Vec<u64> = (0..128).map(|_| rng.next_u64()).collect();
        [pairs[7], pairs[31], pairs[32], pairs[127]]
    }

    #[test]
    fn keystreams_match_recorded_answers() {
        // Recorded from the one-block-per-refill scalar generator; any
        // refill strategy must reproduce them word for word.
        let stream = 0x0123_4567_89ab_cdef;
        let edges = [
            (
                "chacha8, zero key",
                edge_words(ChaCha8Rng::from_seed([0; 32])),
                [
                    0x2fef003e, 0x42fe0c0e, 0x0dfaaed2, 0x01bf7962, 0x475ff7e8, 0x59d1b08c,
                    0x65ca6a42, 0x87bf7b90, 0xe37d931e,
                ],
            ),
            (
                "chacha8, keyed stream",
                edge_words(keyed::<4>(stream)),
                [
                    0xe19de75c, 0x2266ecf8, 0xddf1dd9b, 0x997fce13, 0x2c05ea2e, 0x62cb7aa4,
                    0x0ff9d19f, 0x6d5a4735, 0x2ba2a268,
                ],
            ),
            (
                "chacha12, zero key",
                edge_words(ChaCha12Rng::from_seed([0; 32])),
                [
                    0x6a9af49b, 0xbe261341, 0x4188d50b, 0xdf2572cb, 0xdf2cb7f4, 0x9a413c4b,
                    0x3f10fac3, 0x94571241, 0x943d5827,
                ],
            ),
            (
                "chacha12, keyed stream",
                edge_words(keyed::<6>(stream)),
                [
                    0x0210c99d, 0xb086fd8c, 0x332758b4, 0xfecbb482, 0x7f9d1d7c, 0xee446719,
                    0xb9ca4546, 0x56f11beb, 0xddbade47,
                ],
            ),
            (
                "chacha20, zero key",
                edge_words(ChaCha20Rng::from_seed([0; 32])),
                [
                    0xade0b876, 0x8665eeb2, 0xbee7079f, 0x7e166731, 0x7488a6e5, 0xadc5472b,
                    0x1860838d, 0xb8f0ffc4, 0x66ed026c,
                ],
            ),
            (
                "chacha20, keyed stream",
                edge_words(keyed::<10>(stream)),
                [
                    0xc141f42e, 0x856e4ab5, 0x0763a16a, 0x60e5c4ed, 0xbb7a5c13, 0xc7bf1ad5,
                    0xd0f035fe, 0x9623a801, 0xa2df6098,
                ],
            ),
        ];
        for (name, got, want) in edges {
            assert_eq!(
                got, want,
                "{name}: words 0, 15, 16, 63, 64, 65, 255, 256, 257"
            );
        }

        let restreams = [
            ("chacha8", restreamed::<4>(), [0xf333b82e, 0xf0c1cdb4]),
            ("chacha12", restreamed::<6>(), [0x91a1983b, 0xb1382453]),
            ("chacha20", restreamed::<10>(), [0x3f440f48, 0x32b8dbe9]),
        ];
        for (name, got, want) in restreams {
            assert_eq!(got, want, "{name}: set_stream mid-buffer");
        }

        let straddles = [
            (
                "chacha8",
                straddling::<4>(),
                [
                    0x0f6e1a76d656a238,
                    0xe7168d4893b4ec3c,
                    0x665fd6ac7fc4857e,
                    0xfeffac64bfbc4420,
                ],
            ),
            (
                "chacha12",
                straddling::<6>(),
                [
                    0xa09afa6c79883646,
                    0x56e96aa54b626621,
                    0xdad147b05d537674,
                    0x79feb331a4b812b9,
                ],
            ),
            (
                "chacha20",
                straddling::<10>(),
                [
                    0x3142b8180c415b48,
                    0x18a1dbff2c3baee4,
                    0xea34548f438c5827,
                    0xd13b1a3674af8f13,
                ],
            ),
        ];
        for (name, got, want) in straddles {
            assert_eq!(got, want, "{name}: u64s across refill edges");
        }
    }

    #[test]
    fn streams_are_independent_and_deterministic() {
        let mut a = ChaCha12Rng::seed_from_u64(99);
        let mut b = ChaCha12Rng::seed_from_u64(99);
        assert_eq!(a.next_u64(), b.next_u64());

        b.set_stream(1);
        let mut c = ChaCha12Rng::seed_from_u64(99);
        c.set_stream(1);
        let from_b: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let from_c: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(from_b, from_c);

        a.set_stream(0);
        let stream0: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_ne!(stream0, from_b, "distinct streams differ");
    }

    #[test]
    fn equality_compares_key_stream_and_position_only() {
        // Same logical state, different buffered bytes.
        let mut a = ChaCha12Rng::seed_from_u64(1);
        a.next_u64();
        a.set_stream(0);
        let b = ChaCha12Rng::seed_from_u64(1);
        assert_eq!(a, b);

        // Same position, past the first 256-word refill, reached through
        // different calls and refills.
        let mut c = b.clone();
        let mut d = b.clone();
        for _ in 0..200 {
            c.next_u64();
        }
        for _ in 0..400 {
            d.next_u32();
        }
        assert_eq!(c, d);

        d.next_u32();
        assert_ne!(c, d, "position");
        let mut e = b.clone();
        e.set_stream(1);
        assert_ne!(b, e, "stream");
        assert_ne!(b, ChaCha12Rng::seed_from_u64(2), "key");
    }

    #[test]
    fn floats_look_uniform() {
        let mut rng = ChaCha12Rng::seed_from_u64(5);
        let mean: f64 = (0..2000).map(|_| rng.gen::<f64>()).sum::<f64>() / 2000.0;
        assert!((mean - 0.5).abs() < 0.03, "mean {mean}");
    }

    /// Compares each vector refill with sixteen scalar blocks for one state:
    /// SSE2 always, AVX-512 when the CPU has it. Returns whether the AVX-512
    /// refill ran.
    #[cfg(target_arch = "x86_64")]
    fn check_refills<const DR: usize>(
        key: &[u32; 8],
        counter: u64,
        stream: u64,
    ) -> Result<bool, TestCaseError> {
        let mut reference = [0; BUF_WORDS];
        scalar::blocks::<DR>(key, counter, stream, &mut reference);
        let mut refilled = [0; BUF_WORDS];
        sse2::refill::<DR>(key, counter, stream, &mut refilled);
        prop_assert_eq!(
            refilled,
            reference,
            "SSE2, {DR} double rounds, counter {counter}"
        );
        let avx512 = avx512::refill::<DR>(key, counter, stream, &mut refilled);
        if avx512 {
            prop_assert_eq!(
                refilled,
                reference,
                "AVX-512, {DR} double rounds, counter {counter}"
            );
        }
        Ok(avx512)
    }

    /// Says once per test run which vector refills were compared, so a test
    /// log shows whether the AVX-512 path ran.
    #[cfg(target_arch = "x86_64")]
    fn report_paths(avx512: bool) {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            if avx512 {
                println!("refill paths compared with the scalar block function: SSE2 and AVX-512");
            } else {
                println!(
                    "refill paths compared with the scalar block function: SSE2 only \
                     (no AVX-512F on this CPU, AVX-512 comparison skipped)"
                );
            }
        });
    }

    #[cfg(target_arch = "x86_64")]
    proptest! {
        #[test]
        fn vector_refills_match_scalar_blocks(
            key in proptest::collection::vec(any::<u32>(), 8),
            stream in any::<u64>(),
            counter in any::<u64>(),
        ) {
            let key: [u32; 8] = key.try_into().expect("eight key words");
            // 2^32 - 2 carries into word 13 inside the first four blocks and
            // 2^32 - 8 halfway through the refill; u64::MAX - 1 and
            // u64::MAX - 7 wrap round to block 0 at the same places.
            for counter in [counter, (1 << 32) - 2, (1 << 32) - 8, u64::MAX - 1, u64::MAX - 7] {
                check_refills::<4>(&key, counter, stream)?;
                check_refills::<6>(&key, counter, stream)?;
                report_paths(check_refills::<10>(&key, counter, stream)?);
            }
        }
    }
}
