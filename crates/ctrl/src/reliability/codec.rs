//! (72,64) SECDED codec: single-error-correcting, double-error-detecting
//! extended Hamming code over 64-bit words.
//!
//! The code is the classic DRAM/SRAM layout: 7 Hamming check bits cover
//! positions `1..=71` of a codeword in which the 64 data bits occupy the
//! non-power-of-two positions, and an eighth overall-parity bit extends the
//! minimum distance to 4. Decoding computes the 7-bit syndrome plus the
//! overall parity and classifies the word:
//!
//! | syndrome | overall parity | verdict |
//! |---|---|---|
//! | 0 | even | clean |
//! | 0 | odd  | overall-parity bit flipped (corrected, data intact) |
//! | ≠0 | odd | single-bit error at the syndrome position (corrected) |
//! | ≠0 | even | double-bit error (detected, **never** miscorrected) |
//!
//! A syndrome that points outside the 71 used positions is reported as
//! uncorrectable too — that only happens for ≥3 flips, where the code makes
//! no promises but detection beats silent miscorrection.
//!
//! Everything is branch-light bit arithmetic over precomputed masks, so the
//! codec is cheap enough to sit on every word read the controller serves
//! (see the `reliability_codec` bench).

/// Data bits per codeword.
pub const DATA_BITS: u32 = 64;
/// Check bits per codeword: 7 Hamming bits plus the overall-parity bit.
pub const CHECK_BITS: u32 = 8;
/// Total codeword length in bits.
pub const CODE_BITS: u32 = DATA_BITS + CHECK_BITS;
/// Highest Hamming position in use (`1..=71`; 7 check + 64 data).
const MAX_POSITION: usize = 71;

/// `POSITION_OF_DATA[k]` = Hamming position (1-based) of data bit `k`.
const POSITION_OF_DATA: [u8; DATA_BITS as usize] = build_position_of_data();
/// `DATA_OF_POSITION[p]` = data-bit index at Hamming position `p`, or `-1`
/// when `p` is a check-bit position or out of range.
const DATA_OF_POSITION: [i8; 128] = build_data_of_position();
/// `GROUP_MASK[i]` selects the data bits whose Hamming position has bit `i`
/// set — the parity group of check bit `i`.
const GROUP_MASK: [u64; 7] = build_group_masks();

const fn build_position_of_data() -> [u8; DATA_BITS as usize] {
    let mut table = [0u8; DATA_BITS as usize];
    let mut position = 1usize;
    let mut k = 0usize;
    while k < DATA_BITS as usize {
        if !position.is_power_of_two() {
            table[k] = position as u8;
            k += 1;
        }
        position += 1;
    }
    table
}

const fn build_data_of_position() -> [i8; 128] {
    let mut table = [-1i8; 128];
    let mut k = 0usize;
    while k < DATA_BITS as usize {
        table[POSITION_OF_DATA[k] as usize] = k as i8;
        k += 1;
    }
    table
}

const fn build_group_masks() -> [u64; 7] {
    let mut masks = [0u64; 7];
    let mut k = 0usize;
    while k < DATA_BITS as usize {
        let position = POSITION_OF_DATA[k] as usize;
        let mut i = 0usize;
        while i < 7 {
            if position & (1 << i) != 0 {
                masks[i] |= 1u64 << k;
            }
            i += 1;
        }
        k += 1;
    }
    masks
}

#[inline]
fn parity64(x: u64) -> u8 {
    (x.count_ones() & 1) as u8
}

/// The 7 Hamming check bits of `data` (bit `i` of the return value is check
/// bit `i`, covering Hamming positions with bit `i` set).
#[inline]
#[must_use]
fn hamming_bits(data: u64) -> u8 {
    let mut check = 0u8;
    let mut i = 0;
    while i < 7 {
        check |= parity64(data & GROUP_MASK[i]) << i;
        i += 1;
    }
    check
}

/// Encodes `data` into its 8 check bits: 7 Hamming bits in the low bits and
/// the overall parity of the 72-bit codeword in bit 7.
#[inline]
#[must_use]
pub fn encode(data: u64) -> u8 {
    let hamming = hamming_bits(data);
    let overall = parity64(data) ^ parity64(u64::from(hamming));
    hamming | (overall << 7)
}

/// What [`decode`] concluded about one received codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeKind {
    /// Syndrome and overall parity agree: no error observed.
    Clean,
    /// A single flipped **data** bit was corrected.
    CorrectedData {
        /// The corrected data-bit index (`0..64`).
        bit: u8,
    },
    /// A single flipped **check** bit was corrected; the data was intact.
    /// Bit `7` is the overall-parity bit.
    CorrectedCheck {
        /// The flipped check-bit index (`0..8`).
        bit: u8,
    },
    /// A double-bit error (or a ≥3-bit error with an out-of-range
    /// syndrome): detected, deliberately **not** corrected.
    Uncorrectable,
}

impl DecodeKind {
    /// `true` for the two corrected variants — a correctable error (CE).
    #[must_use]
    pub fn is_corrected(self) -> bool {
        matches!(
            self,
            DecodeKind::CorrectedData { .. } | DecodeKind::CorrectedCheck { .. }
        )
    }
}

/// A decoded word: the data to deliver plus the codec's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decoded {
    /// The delivered data: corrected when the verdict is a data CE, the
    /// received data unchanged otherwise (including uncorrectable words,
    /// which the host is told not to trust).
    pub data: u64,
    /// The classification.
    pub kind: DecodeKind,
}

/// Decodes a received `(data, check)` pair.
#[must_use]
pub fn decode(data: u64, check: u8) -> Decoded {
    let syndrome = (hamming_bits(data) ^ check) & 0x7f;
    let parity_even = parity64(data) ^ parity64(u64::from(check)) == 0;
    let kind = match (syndrome, parity_even) {
        (0, true) => DecodeKind::Clean,
        // Only the overall-parity bit disagrees: it flipped, data intact.
        (0, false) => DecodeKind::CorrectedCheck { bit: 7 },
        (s, false) => {
            if s.is_power_of_two() {
                DecodeKind::CorrectedCheck {
                    bit: s.trailing_zeros() as u8,
                }
            } else if (s as usize) <= MAX_POSITION {
                DecodeKind::CorrectedData {
                    bit: DATA_OF_POSITION[s as usize] as u8,
                }
            } else {
                // Odd weight but a position we never use: ≥3 flips.
                DecodeKind::Uncorrectable
            }
        }
        (_, true) => DecodeKind::Uncorrectable,
    };
    let data = match kind {
        DecodeKind::CorrectedData { bit } => data ^ (1u64 << bit),
        _ => data,
    };
    Decoded { data, kind }
}

/// Flips bit `index` of a codeword for fault-injection tests: indices
/// `0..64` are data bits, `64..72` are check bits (`71` = overall parity).
///
/// # Panics
///
/// Panics if `index` is not below [`CODE_BITS`].
#[must_use]
pub fn flip(data: u64, check: u8, index: u32) -> (u64, u8) {
    assert!(index < CODE_BITS, "codeword bit {index} out of range");
    if index < DATA_BITS {
        (data ^ (1u64 << index), check)
    } else {
        (data, check ^ (1u8 << (index - DATA_BITS)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_consistent() {
        // 64 distinct non-power-of-two positions in 1..=71.
        let mut seen = [false; 128];
        for &position in &POSITION_OF_DATA {
            let position = position as usize;
            assert!((1..=MAX_POSITION).contains(&position));
            assert!(!position.is_power_of_two());
            assert!(!seen[position], "duplicate position {position}");
            seen[position] = true;
        }
        for (k, &position) in POSITION_OF_DATA.iter().enumerate() {
            assert_eq!(DATA_OF_POSITION[position as usize], k as i8);
        }
    }

    #[test]
    fn clean_words_decode_clean() {
        for data in [0u64, u64::MAX, 0xdead_beef_cafe_f00d, 1, 1 << 63] {
            let check = encode(data);
            let decoded = decode(data, check);
            assert_eq!(decoded.kind, DecodeKind::Clean, "{data:#x}");
            assert_eq!(decoded.data, data);
        }
    }

    #[test]
    fn every_single_bit_error_is_corrected() {
        let data = 0xa5a5_5a5a_0f0f_f0f0u64;
        let check = encode(data);
        for index in 0..CODE_BITS {
            let (bad_data, bad_check) = flip(data, check, index);
            let decoded = decode(bad_data, bad_check);
            assert_eq!(decoded.data, data, "flip {index} must be corrected");
            assert!(
                decoded.kind.is_corrected(),
                "flip {index}: got {:?}",
                decoded.kind
            );
            if index < DATA_BITS {
                assert_eq!(decoded.kind, DecodeKind::CorrectedData { bit: index as u8 });
            } else {
                assert_eq!(
                    decoded.kind,
                    DecodeKind::CorrectedCheck {
                        bit: (index - DATA_BITS) as u8
                    }
                );
            }
        }
    }

    #[test]
    fn every_double_bit_error_is_detected_not_miscorrected() {
        let data = 0x0123_4567_89ab_cdefu64;
        let check = encode(data);
        for i in 0..CODE_BITS {
            for j in (i + 1)..CODE_BITS {
                let (d1, c1) = flip(data, check, i);
                let (d2, c2) = flip(d1, c1, j);
                let decoded = decode(d2, c2);
                assert_eq!(
                    decoded.kind,
                    DecodeKind::Uncorrectable,
                    "flips ({i}, {j}) must be detected"
                );
                assert_eq!(decoded.data, d2, "({i}, {j}): data must pass through");
            }
        }
    }

    #[test]
    fn flip_is_an_involution() {
        let data = 77u64;
        let check = encode(data);
        for index in 0..CODE_BITS {
            let (d, c) = flip(data, check, index);
            assert_ne!((d, c), (data, check));
            assert_eq!(flip(d, c, index), (data, check));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flip_rejects_out_of_range_bits() {
        let _ = flip(0, 0, CODE_BITS);
    }
}
