//! SEC-DED extended Hamming (22,16) code for the weight store.
//!
//! Each Q6.10 weight word (16 bits) is protected by 5 Hamming check bits
//! plus one overall-parity bit, the classic single-error-correct /
//! double-error-detect organization used by SRAM macros. Codeword layout
//! (LSB first):
//!
//! * bit 0 — overall parity (makes the XOR of all 22 bits even),
//! * bits at power-of-two positions 1, 2, 4, 8, 16 — Hamming check bits,
//! * the remaining 16 positions — data bits in ascending order.
//!
//! [`decode`] distinguishes three outcomes: a clean word, a corrected
//! single-bit error (any of the 22 positions, including the parity bits
//! themselves), and a detected-but-uncorrectable double error. Triple and
//! heavier errors are outside the code's guarantee and may alias.

/// Data bits per codeword (one Q6.10 weight).
pub const DATA_BITS: u32 = 16;

/// Total bits per codeword: 16 data + 5 Hamming check + 1 overall parity.
pub const CODE_BITS: u32 = 22;

/// Codeword bits covered by Hamming check bit `k` (the check bit at
/// position `2^k` included): every position in `1..22` whose index has
/// bit `k` set.
const fn cover(k: u32) -> u32 {
    let mut mask = 0;
    let mut pos = 1;
    while pos < CODE_BITS {
        if pos & 1 << k != 0 {
            mask |= 1 << pos;
        }
        pos += 1;
    }
    mask
}

/// Parity masks of the five Hamming check bits.
const COVER: [u32; 5] = [cover(0), cover(1), cover(2), cover(3), cover(4)];

/// All 22 codeword positions.
const CODE_MASK: u32 = (1 << CODE_BITS) - 1;

/// Parity (0 or 1) of the bits of `cw` under `mask`.
fn parity(cw: u32, mask: u32) -> u32 {
    (cw & mask).count_ones() & 1
}

/// Outcome of decoding one codeword.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EccStatus {
    /// No error detected.
    Clean,
    /// A single-bit error was detected and corrected.
    Corrected,
    /// A double-bit error was detected; the returned data is unreliable.
    DoubleDetected,
}

/// Encode a 16-bit data word into a 22-bit SEC-DED codeword.
pub fn encode(data: u16) -> u32 {
    // Data runs between the check positions: bit 0 at 3, bits 1–3 at
    // 5–7, bits 4–10 at 9–15, bits 11–15 at 17–21.
    let d = u32::from(data);
    let mut cw = (d & 1) << 3 | (d >> 1 & 0x7) << 5 | (d >> 4 & 0x7F) << 9 | (d >> 11) << 17;
    for (k, &mask) in COVER.iter().enumerate() {
        cw |= parity(cw, mask) << (1 << k);
    }
    cw | parity(cw, CODE_MASK)
}

/// Decode a 22-bit codeword back to its data word plus an error verdict.
///
/// Single-bit errors (any position) are corrected; double-bit errors are
/// reported as [`EccStatus::DoubleDetected`] and never silently
/// miscorrected into a different clean word.
pub fn decode(cw: u32) -> (u16, EccStatus) {
    // Bit k of the syndrome is the parity of the positions whose index
    // has bit k set, so the syndrome is the XOR of the set positions.
    let syndrome = COVER
        .iter()
        .enumerate()
        .fold(0, |s, (k, &mask)| s | parity(cw, mask) << k);
    let overall = parity(cw, CODE_MASK);
    let mut fixed = cw;
    let status = if syndrome == 0 && overall == 0 {
        EccStatus::Clean
    } else if overall == 1 {
        // A single flipped bit: the syndrome names its position (0 means
        // the overall-parity bit itself). A syndrome above the codeword
        // width can only arise from ≥3 errors, which the code cannot
        // correct; the flip below is then harmless to the data bits.
        fixed ^= 1u32.checked_shl(syndrome).unwrap_or(0);
        EccStatus::Corrected
    } else {
        EccStatus::DoubleDetected
    };
    let data = (fixed >> 3 & 1)
        | (fixed >> 5 & 0x7) << 1
        | (fixed >> 9 & 0x7F) << 4
        | (fixed >> 17 & 0x1F) << 11;
    (data as u16, status)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_is_identity_for_every_word() {
        for w in 0..=u16::MAX {
            let cw = encode(w);
            assert_eq!(cw >> CODE_BITS, 0, "codeword wider than 22 bits");
            assert_eq!(decode(cw), (w, EccStatus::Clean), "word {w:#06x}");
        }
    }

    #[test]
    fn every_single_flip_is_corrected() {
        for w in [0u16, 0xFFFF, 0xA5A5, 0x1234, 0x8001] {
            let cw = encode(w);
            for bit in 0..CODE_BITS {
                let (data, status) = decode(cw ^ (1 << bit));
                assert_eq!(status, EccStatus::Corrected, "word {w:#06x} bit {bit}");
                assert_eq!(data, w, "word {w:#06x} bit {bit}");
            }
        }
    }

    #[test]
    fn every_double_flip_is_detected() {
        let w = 0x6B2Du16;
        let cw = encode(w);
        for a in 0..CODE_BITS {
            for b in (a + 1)..CODE_BITS {
                let (_, status) = decode(cw ^ (1 << a) ^ (1 << b));
                assert_eq!(status, EccStatus::DoubleDetected, "bits {a},{b}");
            }
        }
    }
}
