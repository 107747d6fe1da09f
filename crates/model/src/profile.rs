//! Entity profiles and profile collections.

use serde::{Deserialize, Serialize};
use sper_text::Tokenizer;

/// Identifier of a profile inside a [`ProfileCollection`].
///
/// Ids are dense (`0..n`), which lets every index in the workspace be a flat
/// `Vec` instead of a hash map — the compact-integer idiom the blocking
/// substrate relies on (§5.1.1, §5.2.1 of the paper prescribe array-backed
/// indexes for exactly this reason). The layout is `repr(transparent)`
/// over `u32` so id slices can be reinterpreted as raw `u32` lanes by the
/// SIMD weighting kernels without a copy.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[repr(transparent)]
pub struct ProfileId(pub u32);

impl ProfileId {
    /// The id as a `usize` for indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ProfileId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Identifier of a data source. Dirty ER uses a single source `SourceId(0)`;
/// Clean-clean ER uses `SourceId(0)` for `P1` and `SourceId(1)` for `P2`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct SourceId(pub u8);

impl SourceId {
    /// First collection (`P1`).
    pub const FIRST: SourceId = SourceId(0);
    /// Second collection (`P2`) in Clean-clean ER.
    pub const SECOND: SourceId = SourceId(1);
}

/// One attribute name–value pair of a profile.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Attribute {
    /// Attribute name (may be an RDF predicate URI, a column name, or a
    /// synthetic name for extracted text).
    pub name: String,
    /// Attribute value.
    pub value: String,
}

impl Attribute {
    /// Creates a new attribute pair.
    pub fn new(name: impl Into<String>, value: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            value: value.into(),
        }
    }
}

/// An entity profile: a uniquely identified set of attribute name–value
/// pairs (§3).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Profile {
    /// Dense id within the collection.
    pub id: ProfileId,
    /// Which source the profile comes from.
    pub source: SourceId,
    /// The name–value pairs describing the entity.
    pub attributes: Vec<Attribute>,
}

impl Profile {
    /// Creates a profile.
    pub fn new(id: ProfileId, source: SourceId, attributes: Vec<Attribute>) -> Self {
        Self {
            id,
            source,
            attributes,
        }
    }

    /// Number of name–value pairs (the paper's `|p̄|` statistic averages
    /// this across a collection).
    pub fn num_pairs(&self) -> usize {
        self.attributes.len()
    }

    /// All attribute-value tokens of the profile, in attribute order, using
    /// `tokenizer`. These are the schema-agnostic blocking keys.
    pub fn tokens(&self, tokenizer: &Tokenizer) -> Vec<String> {
        let mut out = Vec::new();
        for attr in &self.attributes {
            tokenizer.tokenize_into(&attr.value, &mut out);
        }
        out
    }

    /// Distinct, sorted attribute-value tokens — the token *set* used by the
    /// Jaccard match function.
    pub fn token_set(&self, tokenizer: &Tokenizer) -> Vec<String> {
        let mut toks = self.tokens(tokenizer);
        toks.sort_unstable();
        toks.dedup();
        toks
    }

    /// Concatenation of all attribute values separated by single spaces —
    /// the string representation compared by the edit-distance match
    /// function.
    pub fn concat_values(&self) -> String {
        let mut out = String::new();
        for (i, attr) in self.attributes.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(&attr.value);
        }
        out
    }

    /// Returns the first value of the attribute called `name`, if any.
    pub fn value_of(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|a| a.name == name)
            .map(|a| a.value.as_str())
    }
}

/// Whether an ER task is Dirty (one source, duplicates within) or
/// Clean-clean (two duplicate-free sources, matches across) — §3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErKind {
    /// A single profile collection that contains duplicates in itself.
    Dirty,
    /// Two duplicate-free but overlapping collections; every match pairs a
    /// `P1` profile with a `P2` profile.
    CleanClean,
}

impl ErKind {
    /// Stable wire code of the kind — the persistence format
    /// (`sper-store`) stores this byte; codes are append-only and never
    /// reassigned.
    pub fn code(self) -> u8 {
        match self {
            ErKind::Dirty => 0,
            ErKind::CleanClean => 1,
        }
    }

    /// The kind with the given wire code, if any.
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(ErKind::Dirty),
            1 => Some(ErKind::CleanClean),
            _ => None,
        }
    }
}

/// The input of an ER task: the profiles plus the task kind.
///
/// Invariants (enforced by [`ProfileCollectionBuilder`]):
/// * profile ids are dense `0..n` in storage order;
/// * Dirty collections only contain `SourceId::FIRST`;
/// * Clean-clean collections contain both sources.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProfileCollection {
    kind: ErKind,
    profiles: Vec<Profile>,
    /// Number of profiles with `SourceId::FIRST` (equals `len` for Dirty).
    n_first: usize,
}

impl ProfileCollection {
    /// The ER task kind.
    pub fn kind(&self) -> ErKind {
        self.kind
    }

    /// Total number of profiles, `|P|` (or `|P1| + |P2|`).
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// True when the collection holds no profiles.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Number of profiles in `P1`.
    pub fn len_first(&self) -> usize {
        self.n_first
    }

    /// Number of profiles in `P2` (0 for Dirty ER).
    pub fn len_second(&self) -> usize {
        self.profiles.len() - self.n_first
    }

    /// The profile with the given id.
    ///
    /// # Panics
    ///
    /// Panics when the id is out of range.
    pub fn get(&self, id: ProfileId) -> &Profile {
        &self.profiles[id.index()]
    }

    /// Iterates all profiles in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Profile> {
        self.profiles.iter()
    }

    /// The backing slice of profiles.
    pub fn profiles(&self) -> &[Profile] {
        &self.profiles
    }

    /// Source of a profile by id.
    #[inline]
    pub fn source_of(&self, id: ProfileId) -> SourceId {
        self.profiles[id.index()].source
    }

    /// Whether `a` and `b` constitute a *valid* comparison for this task:
    /// distinct profiles, and (for Clean-clean) from different sources.
    #[inline]
    pub fn is_valid_comparison(&self, a: ProfileId, b: ProfileId) -> bool {
        if a == b {
            return false;
        }
        match self.kind {
            ErKind::Dirty => true,
            ErKind::CleanClean => self.source_of(a) != self.source_of(b),
        }
    }

    /// Average number of name–value pairs per profile (`|p̄|`, Table 2).
    pub fn avg_pairs(&self) -> f64 {
        if self.profiles.is_empty() {
            return 0.0;
        }
        let total: usize = self.profiles.iter().map(Profile::num_pairs).sum();
        total as f64 / self.profiles.len() as f64
    }

    /// Number of distinct attribute names across the collection.
    pub fn num_attribute_names(&self) -> usize {
        let mut names: Vec<&str> = self
            .profiles
            .iter()
            .flat_map(|p| p.attributes.iter().map(|a| a.name.as_str()))
            .collect();
        names.sort_unstable();
        names.dedup();
        names.len()
    }

    /// Appends a profile to a live collection — the streaming ingest path
    /// (`sper-stream`). The profile joins the single source of a Dirty
    /// task, or `P2` of a Clean-clean task (the indexed base `P1` is fixed
    /// at build time; new traffic arrives as the second source). Ids stay
    /// dense: the new profile gets the next id.
    pub fn append_profile(&mut self, attributes: Vec<Attribute>) -> ProfileId {
        let id = ProfileId(self.profiles.len() as u32);
        let source = match self.kind {
            ErKind::Dirty => SourceId::FIRST,
            ErKind::CleanClean => SourceId::SECOND,
        };
        if self.kind == ErKind::Dirty {
            self.n_first += 1;
        }
        self.profiles.push(Profile::new(id, source, attributes));
        id
    }

    /// Retracts a profile in place, clearing its attributes and returning
    /// them — the deletion path of the mutation model (`sper-stream`).
    ///
    /// The id is **not** recycled and the slot is **not** removed: dense
    /// ids are load-bearing across every array-backed index in the
    /// workspace, so a retracted profile stays behind as an attribute-less
    /// *husk* that no tokenizer can produce blocking keys for. Epoch
    /// rebuilds that start from the collection (SA-PSAB's suffix forest)
    /// therefore skip it without any extra bookkeeping, and `n_first` /
    /// source assignments stay untouched.
    ///
    /// # Panics
    ///
    /// Panics when the id is out of range.
    pub fn retract_profile(&mut self, id: ProfileId) -> Vec<Attribute> {
        std::mem::take(&mut self.profiles[id.index()].attributes)
    }

    /// True when the profile holds no attributes — either never had any or
    /// was cleared by [`Self::retract_profile`].
    pub fn is_husk(&self, id: ProfileId) -> bool {
        self.profiles[id.index()].attributes.is_empty()
    }

    /// Total number of comparisons of the naïve (blocking-free) solution:
    /// `n·(n−1)/2` for Dirty, `|P1|·|P2|` for Clean-clean.
    pub fn naive_comparisons(&self) -> u64 {
        match self.kind {
            ErKind::Dirty => {
                let n = self.profiles.len() as u64;
                n * n.saturating_sub(1) / 2
            }
            ErKind::CleanClean => self.n_first as u64 * self.len_second() as u64,
        }
    }
}

impl std::ops::Index<ProfileId> for ProfileCollection {
    type Output = Profile;

    fn index(&self, id: ProfileId) -> &Profile {
        self.get(id)
    }
}

/// Builder enforcing the [`ProfileCollection`] invariants.
///
/// ```
/// use sper_model::ProfileCollectionBuilder;
/// let mut b = ProfileCollectionBuilder::clean_clean();
/// let p1 = b.add_profile([("name", "Carl White")]);
/// b.start_second_source();
/// let p2 = b.add_profile([("fullname", "Karl White")]);
/// let coll = b.build();
/// assert!(coll.is_valid_comparison(p1, p2));
/// ```
#[derive(Debug, Clone)]
pub struct ProfileCollectionBuilder {
    kind: ErKind,
    profiles: Vec<Profile>,
    current_source: SourceId,
    n_first: usize,
    second_started: bool,
}

impl ProfileCollectionBuilder {
    /// Starts a Dirty-ER collection (a single source).
    pub fn dirty() -> Self {
        Self {
            kind: ErKind::Dirty,
            profiles: Vec::new(),
            current_source: SourceId::FIRST,
            n_first: 0,
            second_started: false,
        }
    }

    /// Starts a Clean-clean-ER collection; profiles added before
    /// [`Self::start_second_source`] belong to `P1`, the rest to `P2`.
    pub fn clean_clean() -> Self {
        Self {
            kind: ErKind::CleanClean,
            ..Self::dirty()
        }
    }

    /// Switches to the second source (`P2`).
    ///
    /// # Panics
    ///
    /// Panics on Dirty builders or when called twice.
    pub fn start_second_source(&mut self) {
        assert_eq!(
            self.kind,
            ErKind::CleanClean,
            "Dirty ER has a single source"
        );
        assert!(!self.second_started, "second source already started");
        self.second_started = true;
        self.n_first = self.profiles.len();
        self.current_source = SourceId::SECOND;
    }

    /// Adds a profile built from `(name, value)` pairs and returns its id.
    pub fn add_profile<N, V>(&mut self, attrs: impl IntoIterator<Item = (N, V)>) -> ProfileId
    where
        N: Into<String>,
        V: Into<String>,
    {
        let id = ProfileId(self.profiles.len() as u32);
        let attributes = attrs
            .into_iter()
            .map(|(n, v)| Attribute::new(n, v))
            .collect();
        self.profiles
            .push(Profile::new(id, self.current_source, attributes));
        id
    }

    /// Adds an already-assembled attribute list.
    pub fn add_attributes(&mut self, attributes: Vec<Attribute>) -> ProfileId {
        let id = ProfileId(self.profiles.len() as u32);
        self.profiles
            .push(Profile::new(id, self.current_source, attributes));
        id
    }

    /// Number of profiles added so far.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// True when no profile has been added yet.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Finalizes the collection.
    ///
    /// # Panics
    ///
    /// Panics when a Clean-clean builder never started its second source.
    pub fn build(self) -> ProfileCollection {
        let n_first = match self.kind {
            ErKind::Dirty => self.profiles.len(),
            ErKind::CleanClean => {
                assert!(
                    self.second_started,
                    "Clean-clean ER requires two sources; call start_second_source()"
                );
                self.n_first
            }
        };
        ProfileCollection {
            kind: self.kind,
            profiles: self.profiles,
            n_first,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sper_text::Tokenizer;

    fn sample_dirty() -> ProfileCollection {
        let mut b = ProfileCollectionBuilder::dirty();
        b.add_profile([("Name", "Carl"), ("Surname", "White")]);
        b.add_profile([("name", "Karl White")]);
        b.add_profile([("text", "Emma White, WI Tailor")]);
        b.build()
    }

    #[test]
    fn ids_are_dense() {
        let coll = sample_dirty();
        for (i, p) in coll.iter().enumerate() {
            assert_eq!(p.id.index(), i);
        }
    }

    #[test]
    fn dirty_comparisons_valid_between_distinct() {
        let coll = sample_dirty();
        assert!(coll.is_valid_comparison(ProfileId(0), ProfileId(1)));
        assert!(!coll.is_valid_comparison(ProfileId(1), ProfileId(1)));
    }

    #[test]
    fn clean_clean_requires_cross_source() {
        let mut b = ProfileCollectionBuilder::clean_clean();
        let a = b.add_profile([("n", "x")]);
        let b2 = b.add_profile([("n", "y")]);
        b.start_second_source();
        let c = b.add_profile([("n", "z")]);
        let coll = b.build();
        assert!(!coll.is_valid_comparison(a, b2));
        assert!(coll.is_valid_comparison(a, c));
        assert_eq!(coll.len_first(), 2);
        assert_eq!(coll.len_second(), 1);
        assert_eq!(coll.naive_comparisons(), 2);
    }

    #[test]
    #[should_panic(expected = "requires two sources")]
    fn clean_clean_without_second_source_panics() {
        let mut b = ProfileCollectionBuilder::clean_clean();
        b.add_profile([("n", "x")]);
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "single source")]
    fn dirty_second_source_panics() {
        let mut b = ProfileCollectionBuilder::dirty();
        b.start_second_source();
    }

    #[test]
    fn profile_tokens_and_concat() {
        let coll = sample_dirty();
        let t = Tokenizer;
        assert_eq!(coll.get(ProfileId(0)).tokens(&t), vec!["carl", "white"]);
        assert_eq!(coll.get(ProfileId(0)).concat_values(), "Carl White");
        assert_eq!(
            coll.get(ProfileId(2)).token_set(&t),
            vec!["emma", "tailor", "white", "wi"]
        );
    }

    #[test]
    fn stats() {
        let coll = sample_dirty();
        assert_eq!(coll.len(), 3);
        assert!((coll.avg_pairs() - 4.0 / 3.0).abs() < 1e-12);
        // Name, Surname, name, text → 4 distinct names (case-sensitive:
        // schema-agnostic ER does not assume aligned attribute names).
        assert_eq!(coll.num_attribute_names(), 4);
        assert_eq!(coll.naive_comparisons(), 3);
    }

    #[test]
    fn append_profile_keeps_ids_dense() {
        let mut coll = sample_dirty();
        let id = coll.append_profile(vec![Attribute::new("name", "Late Arrival")]);
        assert_eq!(id, ProfileId(3));
        assert_eq!(coll.len(), 4);
        assert_eq!(coll.len_first(), 4);
        assert_eq!(coll.source_of(id), SourceId::FIRST);
        assert!(coll.is_valid_comparison(ProfileId(0), id));
    }

    #[test]
    fn append_profile_clean_clean_joins_second_source() {
        let mut b = ProfileCollectionBuilder::clean_clean();
        let a = b.add_profile([("n", "x")]);
        b.start_second_source();
        b.add_profile([("n", "y")]);
        let mut coll = b.build();
        let late = coll.append_profile(vec![Attribute::new("n", "z")]);
        assert_eq!(coll.source_of(late), SourceId::SECOND);
        assert_eq!(coll.len_first(), 1);
        assert_eq!(coll.len_second(), 2);
        assert!(coll.is_valid_comparison(a, late));
    }

    #[test]
    fn retract_leaves_a_husk_with_a_stable_id() {
        let mut coll = sample_dirty();
        let old = coll.retract_profile(ProfileId(1));
        assert_eq!(old, vec![Attribute::new("name", "Karl White")]);
        assert!(coll.is_husk(ProfileId(1)));
        assert!(!coll.is_husk(ProfileId(0)));
        // The slot survives: ids stay dense, sources and n_first untouched.
        assert_eq!(coll.len(), 3);
        assert_eq!(coll.len_first(), 3);
        assert_eq!(coll.get(ProfileId(1)).id, ProfileId(1));
        assert!(coll.get(ProfileId(1)).tokens(&Tokenizer).is_empty());
        // Re-ingest lands on a fresh id, never the husk's.
        let re = coll.append_profile(vec![Attribute::new("name", "Karl White")]);
        assert_eq!(re, ProfileId(3));
    }

    #[test]
    fn value_of() {
        let coll = sample_dirty();
        assert_eq!(coll.get(ProfileId(0)).value_of("Name"), Some("Carl"));
        assert_eq!(coll.get(ProfileId(0)).value_of("missing"), None);
    }
}
