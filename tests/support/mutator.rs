//! The byte-level mutator shared by the no-panic harnesses of the
//! workspace's text inputs: span CSV files, correlated-trace JSONL files,
//! `--faults` specs and scenario traces. Each harness includes this file
//! with `#[path]` and describes its format with a [`Mutator`].

use seqio_simcore::SimRng;

/// How to corrupt one input format.
pub struct Mutator {
    /// Bytes a random byte may be swapped for: the format's separators
    /// and the characters of its keywords.
    pub alphabet: &'static [u8],
    /// Edge-case numbers, each spliced over one whole number of the input.
    pub edges: &'static [&'static str],
    /// Whether a mutation may drop one line.
    pub drops_lines: bool,
}

impl Mutator {
    /// A mutant of `base`: one to three mutations of its bytes.
    pub fn mutant(&self, base: &str, rng: &mut SimRng) -> Vec<u8> {
        let mut bytes = base.as_bytes().to_vec();
        for _ in 0..1 + rng.below(3) {
            self.mutate(&mut bytes, base, rng);
        }
        bytes
    }

    /// Applies one random mutation to `bytes`: a bit flip, a byte swapped
    /// for one of the alphabet, a truncation, a line splice (the head of
    /// one line of `base` joined to the tail of another, inserted at a line
    /// boundary), a dropped line when the format allows it, or — otherwise,
    /// and most often, since it mostly keeps the input parseable and so
    /// reaches the code behind the parser — a number replaced by an edge
    /// case.
    fn mutate(&self, bytes: &mut Vec<u8>, base: &str, rng: &mut SimRng) {
        let pos = |rng: &mut SimRng, len: usize| rng.below(len.max(1) as u64) as usize;
        match rng.below(8) {
            0 if !bytes.is_empty() => {
                let i = pos(rng, bytes.len());
                bytes[i] ^= 1 << rng.below(8);
            }
            1 if !bytes.is_empty() => {
                let i = pos(rng, bytes.len());
                bytes[i] = self.alphabet[pos(rng, self.alphabet.len())];
            }
            2 => bytes.truncate(pos(rng, bytes.len() + 1)),
            3 => {
                let corpus: Vec<&str> = base.lines().collect();
                let (a, b) = (corpus[pos(rng, corpus.len())], corpus[pos(rng, corpus.len())]);
                let (cut_a, cut_b) = (pos(rng, a.len() + 1), pos(rng, b.len() + 1));
                let line = format!("{}{}\n", &a[..cut_a], &b[cut_b..]);
                let starts: Vec<usize> = std::iter::once(0)
                    .chain(
                        bytes.iter().enumerate().filter(|(_, &c)| c == b'\n').map(|(i, _)| i + 1),
                    )
                    .collect();
                let at = starts[pos(rng, starts.len())];
                bytes.splice(at..at, line.bytes());
            }
            4 if self.drops_lines => {
                let text = String::from_utf8_lossy(bytes).into_owned();
                let lines: Vec<&str> = text.lines().collect();
                let drop = pos(rng, lines.len());
                let kept: Vec<&str> =
                    lines.iter().enumerate().filter(|&(i, _)| i != drop).map(|(_, l)| *l).collect();
                *bytes = (kept.join("\n") + "\n").into_bytes();
            }
            _ => {
                let digits: Vec<usize> = (0..bytes.len())
                    .filter(|&i| {
                        bytes[i].is_ascii_digit() && (i == 0 || !bytes[i - 1].is_ascii_digit())
                    })
                    .collect();
                if digits.is_empty() {
                    return;
                }
                let start = digits[pos(rng, digits.len())];
                let end = bytes[start..]
                    .iter()
                    .position(|c| !c.is_ascii_digit())
                    .map_or(bytes.len(), |n| start + n);
                bytes.splice(start..end, self.edges[pos(rng, self.edges.len())].bytes());
            }
        }
    }
}
