//! The data model: packet structure and field semantics, plus the
//! generator that renders models to wire bytes.

use std::collections::HashMap;
use std::fmt;

/// Byte order of a multi-byte integer field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Endian {
    /// Network byte order (the default for protocol fields).
    #[default]
    Big,
    /// Little-endian byte order.
    Little,
}

/// The payload a field carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldValue {
    /// Unsigned integer payload (width comes from the field kind).
    Int(u64),
    /// Raw byte payload.
    Bytes(Vec<u8>),
    /// UTF-8 text payload.
    Str(String),
    /// No payload (containers, computed fields).
    None,
}

impl FieldValue {
    /// Integer payload, if any.
    #[must_use]
    pub fn as_int(&self) -> Option<u64> {
        match self {
            FieldValue::Int(i) => Some(*i),
            _ => None,
        }
    }
}

/// Structural kind of a field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldKind {
    /// Fixed-width unsigned integer.
    UInt {
        /// Width in bits; must be one of 8, 16, 24, 32, 64.
        bits: u8,
        /// Byte order.
        endian: Endian,
    },
    /// Raw byte blob (variable length).
    Bytes,
    /// UTF-8 string (rendered as its bytes).
    Str,
    /// Computed field: the rendered byte length of the field named `of`,
    /// plus `adjust`, encoded as an integer of `bits` width.
    LengthOf {
        /// Name of the measured field (searched recursively).
        of: String,
        /// Width in bits of the encoded length.
        bits: u8,
        /// Byte order.
        endian: Endian,
        /// Signed adjustment added to the measured length — mutating this
        /// is how fuzzers lie about lengths.
        adjust: i64,
    },
    /// A named sequence of sub-fields.
    Block(Vec<Field>),
    /// Exactly one of several alternatives, chosen by `selected`.
    Choice {
        /// The alternatives.
        options: Vec<Field>,
        /// Index of the currently selected alternative.
        selected: usize,
    },
}

/// One field of a [`DataModel`].
///
/// # Examples
///
/// ```
/// use cmfuzz_fuzzer::{Field, FieldValue};
///
/// let f = Field::uint("flags", 8, 0x02).immutable();
/// assert_eq!(f.name(), "flags");
/// assert_eq!(f.value().as_int(), Some(0x02));
/// assert!(!f.is_mutable());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    name: String,
    kind: FieldKind,
    value: FieldValue,
    mutable: bool,
}

impl Field {
    /// Big-endian unsigned integer field.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not one of 8, 16, 24, 32, 64.
    #[must_use]
    pub fn uint(name: &str, bits: u8, value: u64) -> Self {
        Field::uint_endian(name, bits, value, Endian::Big)
    }

    /// Unsigned integer field with explicit byte order.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not one of 8, 16, 24, 32, 64.
    #[must_use]
    pub fn uint_endian(name: &str, bits: u8, value: u64, endian: Endian) -> Self {
        assert!(
            matches!(bits, 8 | 16 | 24 | 32 | 64),
            "unsupported integer width: {bits}"
        );
        Field {
            name: name.to_owned(),
            kind: FieldKind::UInt { bits, endian },
            value: FieldValue::Int(value),
            mutable: true,
        }
    }

    /// Raw byte blob field.
    #[must_use]
    pub fn bytes(name: &str, value: &[u8]) -> Self {
        Field {
            name: name.to_owned(),
            kind: FieldKind::Bytes,
            value: FieldValue::Bytes(value.to_vec()),
            mutable: true,
        }
    }

    /// UTF-8 string field.
    #[must_use]
    pub fn str(name: &str, value: &str) -> Self {
        Field {
            name: name.to_owned(),
            kind: FieldKind::Str,
            value: FieldValue::Str(value.to_owned()),
            mutable: true,
        }
    }

    /// Computed length-of field.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not one of 8, 16, 24, 32, 64.
    #[must_use]
    pub fn length_of(name: &str, of: &str, bits: u8, endian: Endian) -> Self {
        assert!(
            matches!(bits, 8 | 16 | 24 | 32 | 64),
            "unsupported integer width: {bits}"
        );
        Field {
            name: name.to_owned(),
            kind: FieldKind::LengthOf {
                of: of.to_owned(),
                bits,
                endian,
                adjust: 0,
            },
            value: FieldValue::None,
            mutable: true,
        }
    }

    /// Container of sub-fields.
    #[must_use]
    pub fn block(name: &str, fields: Vec<Field>) -> Self {
        Field {
            name: name.to_owned(),
            kind: FieldKind::Block(fields),
            value: FieldValue::None,
            mutable: true,
        }
    }

    /// One-of-several alternative field; the first option is selected.
    ///
    /// # Panics
    ///
    /// Panics if `options` is empty.
    #[must_use]
    pub fn choice(name: &str, options: Vec<Field>) -> Self {
        assert!(!options.is_empty(), "choice needs at least one option");
        Field {
            name: name.to_owned(),
            kind: FieldKind::Choice {
                options,
                selected: 0,
            },
            value: FieldValue::None,
            mutable: true,
        }
    }

    /// Marks the field as off-limits for mutation (framing bytes that must
    /// stay valid for the message to be parsed at all).
    #[must_use]
    pub fn immutable(mut self) -> Self {
        self.mutable = false;
        self
    }

    /// Field name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Structural kind.
    #[must_use]
    pub fn kind(&self) -> &FieldKind {
        &self.kind
    }

    /// Mutable access to the kind, for in-place adjustments such as
    /// selecting a different choice alternative or lying in a length field.
    pub fn kind_mut(&mut self) -> &mut FieldKind {
        &mut self.kind
    }

    /// Current payload.
    #[must_use]
    pub fn value(&self) -> &FieldValue {
        &self.value
    }

    /// Mutable access to the payload, for in-place value updates.
    pub fn value_mut(&mut self) -> &mut FieldValue {
        &mut self.value
    }

    /// Whether the mutation engine may touch this field.
    #[must_use]
    pub fn is_mutable(&self) -> bool {
        self.mutable
    }
}

/// A packet structure: an ordered list of named fields (the paper's *data
/// model*, which "defines the structure and format of protocol inputs").
///
/// # Examples
///
/// ```
/// use cmfuzz_fuzzer::{DataModel, Field, Generator, Endian};
///
/// let model = DataModel::new("dns_query")
///     .field(Field::uint("id", 16, 0x1234))
///     .field(Field::uint("flags", 16, 0x0100));
/// assert_eq!(Generator::render(&model), vec![0x12, 0x34, 0x01, 0x00]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataModel {
    name: String,
    fields: Vec<Field>,
}

impl DataModel {
    /// Creates an empty model.
    #[must_use]
    pub fn new(name: &str) -> Self {
        DataModel {
            name: name.to_owned(),
            fields: Vec::new(),
        }
    }

    /// Appends a field (builder style).
    #[must_use]
    pub fn field(mut self, field: Field) -> Self {
        self.fields.push(field);
        self
    }

    /// Model name, referenced by state-model transitions.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The fields in order.
    #[must_use]
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Mutable field access, for callers that adjust models in place
    /// (e.g. flipping a choice's selected alternative between sessions).
    pub fn fields_mut(&mut self) -> &mut Vec<Field> {
        &mut self.fields
    }

    /// Collects mutable references to every mutation-eligible field,
    /// recursing into blocks and the selected branch of choices.
    ///
    /// Reference implementation of the mutation-site walk; the hot loop
    /// uses the allocation-free [`count_mutable`](Self::count_mutable) /
    /// [`nth_mutable`](Self::nth_mutable) pair, which tests check against
    /// this list.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn collect_mutable(&mut self) -> Vec<&mut Field> {
        fn walk<'a>(fields: &'a mut [Field], out: &mut Vec<&'a mut Field>) {
            for field in fields {
                if !field.is_mutable() {
                    continue;
                }
                // A container counts as a mutation site itself only for
                // choices (selection flip); blocks just recurse.
                match field.kind {
                    FieldKind::Block(_) => {
                        if let FieldKind::Block(children) = field.kind_mut() {
                            walk(children, out);
                        }
                    }
                    _ => out.push(field),
                }
            }
        }
        let mut out = Vec::new();
        walk(&mut self.fields, &mut out);
        out
    }

    /// Number of mutation-eligible fields, in
    /// [`collect_mutable`](Self::collect_mutable) order, without
    /// materializing the list — the hot loop pairs this with
    /// [`nth_mutable`](Self::nth_mutable) to pick a site allocation-free.
    pub(crate) fn count_mutable(&self) -> usize {
        fn walk(fields: &[Field]) -> usize {
            let mut count = 0;
            for field in fields {
                if !field.is_mutable() {
                    continue;
                }
                match field.kind() {
                    FieldKind::Block(children) => count += walk(children),
                    _ => count += 1,
                }
            }
            count
        }
        walk(&self.fields)
    }

    /// The `n`-th mutation-eligible field in
    /// [`collect_mutable`](Self::collect_mutable) order, or `None` past
    /// the end.
    pub(crate) fn nth_mutable(&mut self, mut n: usize) -> Option<&mut Field> {
        fn walk<'a>(fields: &'a mut [Field], n: &mut usize) -> Option<&'a mut Field> {
            for field in fields {
                if !field.is_mutable() {
                    continue;
                }
                let is_block = matches!(field.kind(), FieldKind::Block(_));
                if is_block {
                    if let FieldKind::Block(children) = field.kind_mut() {
                        if let Some(hit) = walk(children, n) {
                            return Some(hit);
                        }
                    }
                } else if *n == 0 {
                    return Some(field);
                } else {
                    *n -= 1;
                }
            }
            None
        }
        walk(&mut self.fields, &mut n)
    }
}

impl fmt::Display for DataModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DataModel({}, {} fields)", self.name, self.fields.len())
    }
}

/// Renders a [`DataModel`] into wire bytes, resolving `LengthOf` relations
/// (the generation step of a generation-based fuzzer).
#[derive(Debug, Clone, Copy, Default)]
pub struct Generator;

/// A rendered segment: either literal bytes or a length placeholder to be
/// patched once the measured field's size is known.
enum Segment {
    Literal(Vec<u8>),
    Placeholder {
        of: String,
        bits: u8,
        endian: Endian,
        adjust: i64,
    },
}

impl Generator {
    /// Renders `model` to bytes.
    ///
    /// `LengthOf` fields measure the rendered length of their target field
    /// (searched anywhere in the model); unknown targets encode as zero, a
    /// deliberate malformation rather than an error, since fuzzers thrive
    /// on slightly wrong messages.
    #[must_use]
    pub fn render(model: &DataModel) -> Vec<u8> {
        let mut segments = Vec::new();
        let mut lengths: HashMap<String, usize> = HashMap::new();
        render_fields(model.fields(), &mut segments, &mut lengths);

        let mut out = Vec::new();
        for segment in segments {
            match segment {
                Segment::Literal(bytes) => out.extend_from_slice(&bytes),
                Segment::Placeholder {
                    of,
                    bits,
                    endian,
                    adjust,
                } => {
                    let measured = lengths.get(&of).copied().unwrap_or(0) as i64 + adjust;
                    let clamped = measured.max(0) as u64;
                    out.extend_from_slice(&encode_uint(clamped, bits, endian));
                }
            }
        }
        out
    }
}

fn render_fields(
    fields: &[Field],
    segments: &mut Vec<Segment>,
    lengths: &mut HashMap<String, usize>,
) {
    for field in fields {
        let before: usize = segments
            .iter()
            .map(|s| match s {
                Segment::Literal(b) => b.len(),
                Segment::Placeholder { bits, .. } => usize::from(*bits) / 8,
            })
            .sum();
        match field.kind() {
            FieldKind::UInt { bits, endian } => {
                let value = field.value().as_int().unwrap_or(0);
                segments.push(Segment::Literal(encode_uint(value, *bits, *endian)));
            }
            FieldKind::Bytes => {
                if let FieldValue::Bytes(b) = field.value() {
                    segments.push(Segment::Literal(b.clone()));
                }
            }
            FieldKind::Str => {
                if let FieldValue::Str(s) = field.value() {
                    segments.push(Segment::Literal(s.as_bytes().to_vec()));
                }
            }
            FieldKind::LengthOf {
                of,
                bits,
                endian,
                adjust,
            } => {
                segments.push(Segment::Placeholder {
                    of: of.clone(),
                    bits: *bits,
                    endian: *endian,
                    adjust: *adjust,
                });
            }
            FieldKind::Block(children) => {
                render_fields(children, segments, lengths);
            }
            FieldKind::Choice { options, selected } => {
                let chosen = &options[(*selected).min(options.len() - 1)];
                render_fields(std::slice::from_ref(chosen), segments, lengths);
            }
        }
        let after: usize = segments
            .iter()
            .map(|s| match s {
                Segment::Literal(b) => b.len(),
                Segment::Placeholder { bits, .. } => usize::from(*bits) / 8,
            })
            .sum();
        lengths.insert(field.name().to_owned(), after - before);
    }
}

fn encode_uint(value: u64, bits: u8, endian: Endian) -> Vec<u8> {
    let mut out = vec![0; usize::from(bits) / 8];
    write_uint(&mut out, value, endian);
    out
}

/// Encodes `value` into `out` as an integer of `out.len()` bytes (at most
/// 8), keeping the low bytes, in `endian` order.
pub(crate) fn write_uint(out: &mut [u8], value: u64, endian: Endian) {
    let width = out.len();
    out.copy_from_slice(&value.to_be_bytes()[8 - width..]);
    if endian == Endian::Little {
        out.reverse();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uint_widths_and_endianness() {
        let model = DataModel::new("m")
            .field(Field::uint("a", 8, 0xAB))
            .field(Field::uint("b", 16, 0x0102))
            .field(Field::uint_endian("c", 16, 0x0102, Endian::Little))
            .field(Field::uint("d", 24, 0x010203))
            .field(Field::uint("e", 32, 0x01020304));
        assert_eq!(
            Generator::render(&model),
            vec![0xAB, 0x01, 0x02, 0x02, 0x01, 0x01, 0x02, 0x03, 0x01, 0x02, 0x03, 0x04]
        );
    }

    #[test]
    fn uint_truncates_to_width() {
        let model = DataModel::new("m").field(Field::uint("a", 8, 0x1FF));
        assert_eq!(Generator::render(&model), vec![0xFF]);
    }

    #[test]
    fn bytes_and_strings_render_verbatim() {
        let model = DataModel::new("m")
            .field(Field::bytes("b", &[1, 2]))
            .field(Field::str("s", "hi"));
        assert_eq!(Generator::render(&model), vec![1, 2, b'h', b'i']);
    }

    #[test]
    fn length_of_measures_later_field() {
        let model = DataModel::new("m")
            .field(Field::length_of("len", "payload", 16, Endian::Big))
            .field(Field::bytes("payload", b"abcd"));
        assert_eq!(
            Generator::render(&model),
            vec![0, 4, b'a', b'b', b'c', b'd']
        );
    }

    #[test]
    fn length_of_measures_block() {
        let model = DataModel::new("m")
            .field(Field::length_of("len", "body", 8, Endian::Big))
            .field(Field::block(
                "body",
                vec![Field::uint("x", 16, 1), Field::bytes("y", b"zz")],
            ));
        assert_eq!(Generator::render(&model)[0], 4);
    }

    #[test]
    fn length_of_unknown_target_encodes_zero() {
        let model = DataModel::new("m").field(Field::length_of("len", "ghost", 8, Endian::Big));
        assert_eq!(Generator::render(&model), vec![0]);
    }

    #[test]
    fn choice_renders_selected_option() {
        let mut model = DataModel::new("m").field(Field::choice(
            "alt",
            vec![Field::uint("v0", 8, 0x00), Field::uint("v1", 8, 0x11)],
        ));
        assert_eq!(Generator::render(&model), vec![0x00]);
        if let FieldKind::Choice { selected, .. } = model.fields_mut()[0].kind_mut() {
            *selected = 1;
        }
        assert_eq!(Generator::render(&model), vec![0x11]);
    }

    #[test]
    fn choice_selected_out_of_range_clamps() {
        let mut model =
            DataModel::new("m").field(Field::choice("alt", vec![Field::uint("v", 8, 7)]));
        if let FieldKind::Choice { selected, .. } = model.fields_mut()[0].kind_mut() {
            *selected = 99;
        }
        assert_eq!(Generator::render(&model), vec![7]);
    }

    #[test]
    fn nested_blocks_render_in_order() {
        let model = DataModel::new("m").field(Field::block(
            "outer",
            vec![
                Field::uint("a", 8, 1),
                Field::block("inner", vec![Field::uint("b", 8, 2)]),
                Field::uint("c", 8, 3),
            ],
        ));
        assert_eq!(Generator::render(&model), vec![1, 2, 3]);
    }

    #[test]
    fn collect_mutable_skips_immutable_and_recurses() {
        let mut model = DataModel::new("m")
            .field(Field::uint("keep", 8, 1).immutable())
            .field(Field::block(
                "blk",
                vec![Field::uint("x", 8, 2), Field::str("s", "t").immutable()],
            ))
            .field(Field::choice("c", vec![Field::uint("o", 8, 3)]));
        let names: Vec<String> = model
            .collect_mutable()
            .iter()
            .map(|f| f.name().to_owned())
            .collect();
        assert_eq!(names, vec!["x", "c"]);
    }

    #[test]
    fn count_and_nth_mutable_agree_with_collect() {
        let mut model = DataModel::new("m")
            .field(Field::uint("keep", 8, 1).immutable())
            .field(Field::block(
                "blk",
                vec![Field::uint("x", 8, 2), Field::str("s", "t").immutable()],
            ))
            .field(Field::choice("c", vec![Field::uint("o", 8, 3)]))
            .field(Field::bytes("tail", b"zz"));
        let collected: Vec<String> = model
            .collect_mutable()
            .iter()
            .map(|f| f.name().to_owned())
            .collect();
        assert_eq!(model.count_mutable(), collected.len());
        for (i, name) in collected.iter().enumerate() {
            assert_eq!(model.nth_mutable(i).unwrap().name(), name);
        }
        assert!(model.nth_mutable(collected.len()).is_none());
    }

    #[test]
    #[should_panic(expected = "unsupported integer width")]
    fn bad_width_panics() {
        let _ = Field::uint("bad", 12, 0);
    }

    #[test]
    fn display_and_accessors() {
        let model = DataModel::new("connect").field(Field::uint("t", 8, 1));
        assert_eq!(model.name(), "connect");
        assert_eq!(model.fields().len(), 1);
        assert_eq!(model.to_string(), "DataModel(connect, 1 fields)");
    }

    #[test]
    fn length_of_adjust_lies_about_length() {
        let mut model = DataModel::new("m")
            .field(Field::length_of("len", "p", 8, Endian::Big))
            .field(Field::bytes("p", b"abc"));
        if let FieldKind::LengthOf { adjust, .. } = model.fields_mut()[0].kind_mut() {
            *adjust = 10;
        }
        assert_eq!(Generator::render(&model)[0], 13);
        if let FieldKind::LengthOf { adjust, .. } = model.fields_mut()[0].kind_mut() {
            *adjust = -100; // clamps at zero
        }
        assert_eq!(Generator::render(&model)[0], 0);
    }
}
