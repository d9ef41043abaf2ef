//! The `Tokenize` and `NGrams` functions of the discovery algorithm
//! (Figure 2, lines 6–7).
//!
//! Discovery feeds each cell through one of three visitors, each handing
//! out borrowed slices of the cell with a position, so extraction
//! allocates nothing:
//!
//! * [`for_each_token`] splits on whitespace, with each token's number —
//!   the paper's pattern display `pattern::position, frequency` uses the
//!   *token number* as the position for tokenized columns;
//! * [`for_each_ngram`] yields all character n-grams with their starting
//!   character offset — per the paper, "n-grams are mainly used to
//!   extract patterns from attributes that contain a single token which
//!   could be a code or id" (e.g. `F-9-107`, `CHEMBL25`);
//! * [`for_each_prefix`] yields the leading characters, for determining
//!   prefixes such as the `900` of `90001`.

/// Visit each whitespace-delimited token as a borrowed slice of `s`,
/// with its 0-based token index. Runs of whitespace are a single
/// separator; leading and trailing whitespace produce no empty tokens.
pub fn for_each_token(s: &str, mut f: impl FnMut(&str, usize)) {
    let mut index = 0usize;
    let mut start: Option<usize> = None;
    for (b, c) in s.char_indices() {
        if c.is_whitespace() {
            if let Some(st) = start.take() {
                f(&s[st..b], index);
                index += 1;
            }
        } else if start.is_none() {
            start = Some(b);
        }
    }
    if let Some(st) = start {
        f(&s[st..], index);
    }
}

/// Visit each character n-gram as a borrowed slice of `s`, with its
/// 0-based starting character offset. Yields the whole string once when
/// it is shorter than `n` (so short codes still produce a key), and
/// nothing for an empty string or `n == 0`.
pub fn for_each_ngram(s: &str, n: usize, mut f: impl FnMut(&str, usize)) {
    if n == 0 || s.is_empty() {
        return;
    }
    let count = s.chars().count();
    if count < n {
        f(s, 0);
        return;
    }
    let mut starts = s.char_indices();
    let mut ends = s.char_indices().skip(n);
    for i in 0..=count - n {
        let (sb, _) = starts.next().expect("start within bounds");
        let eb = ends.next().map_or(s.len(), |(b, _)| b);
        f(&s[sb..eb], i);
    }
}

/// Visit each prefix of up to `max_len` characters as a borrowed slice
/// of `s`, shortest first. The position is always 0 (prefixes start at
/// the beginning by construction).
pub fn for_each_prefix(s: &str, max_len: usize, mut f: impl FnMut(&str, usize)) {
    let mut emitted = 0usize;
    for (byte, _) in s.char_indices().skip(1) {
        if emitted >= max_len {
            return;
        }
        emitted += 1;
        f(&s[..byte], 0);
    }
    if emitted < max_len && !s.is_empty() {
        f(s, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_cb(f: impl Fn(&mut dyn FnMut(&str, usize))) -> Vec<(String, usize)> {
        let mut out = Vec::new();
        f(&mut |s, p| out.push((s.to_string(), p)));
        out
    }

    fn tokens(s: &str) -> Vec<(String, usize)> {
        collect_cb(|f| for_each_token(s, f))
    }

    fn owned(pairs: &[(&str, usize)]) -> Vec<(String, usize)> {
        pairs.iter().map(|&(s, p)| (s.to_string(), p)).collect()
    }

    #[test]
    fn tokens_simple() {
        assert_eq!(
            tokens("John Charles"),
            owned(&[("John", 0), ("Charles", 1)])
        );
        assert_eq!(tokens("one"), owned(&[("one", 0)]));
    }

    #[test]
    fn tokens_punctuation_stays_attached() {
        assert_eq!(
            tokens("Holloway, Donald E."),
            owned(&[("Holloway,", 0), ("Donald", 1), ("E.", 2)])
        );
    }

    #[test]
    fn tokens_collapse_whitespace() {
        assert_eq!(tokens("  a \t b  "), owned(&[("a", 0), ("b", 1)]));
    }

    #[test]
    fn tokens_empty() {
        assert!(tokens("").is_empty());
        assert!(tokens("   ").is_empty());
    }

    #[test]
    fn tokens_unicode() {
        assert_eq!(
            tokens("Édouard Manet"),
            owned(&[("Édouard", 0), ("Manet", 1)])
        );
    }

    #[test]
    fn ngrams_basic() {
        let grams = collect_cb(|f| for_each_ngram("90001", 3, f));
        assert_eq!(grams, owned(&[("900", 0), ("000", 1), ("001", 2)]));
        let grams = collect_cb(|f| for_each_ngram("Édouard", 2, f));
        assert_eq!(grams[0], ("Éd".to_string(), 0));
        assert_eq!(grams.len(), 6);
    }

    #[test]
    fn ngrams_short_string() {
        assert_eq!(
            collect_cb(|f| for_each_ngram("ab", 3, f)),
            owned(&[("ab", 0)])
        );
    }

    #[test]
    fn ngrams_degenerate() {
        assert!(collect_cb(|f| for_each_ngram("", 3, f)).is_empty());
        assert!(collect_cb(|f| for_each_ngram("abc", 0, f)).is_empty());
    }

    #[test]
    fn ngrams_full_length() {
        assert_eq!(
            collect_cb(|f| for_each_ngram("abc", 3, f)),
            owned(&[("abc", 0)])
        );
    }

    #[test]
    fn prefixes_basic() {
        assert_eq!(
            collect_cb(|f| for_each_prefix("90001", 3, f)),
            owned(&[("9", 0), ("90", 0), ("900", 0)])
        );
        assert_eq!(
            collect_cb(|f| for_each_prefix("Édouard", 3, f)),
            owned(&[("É", 0), ("Éd", 0), ("Édo", 0)])
        );
        assert_eq!(
            collect_cb(|f| for_each_prefix("x", 1, f)),
            owned(&[("x", 0)])
        );
    }

    #[test]
    fn prefixes_capped_by_length() {
        assert_eq!(collect_cb(|f| for_each_prefix("ab", 5, f)).len(), 2);
        assert!(collect_cb(|f| for_each_prefix("", 5, f)).is_empty());
    }
}
