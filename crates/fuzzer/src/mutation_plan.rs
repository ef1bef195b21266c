//! Mutation plans: a field mutation of a data model as one patch over
//! its pristine bytes.
//!
//! [`Generator::render`] is the reference semantics, and it walks the
//! whole field tree and fills a lengths map on every call. The session
//! loop renders from pristine models only: a plain message is the
//! pristine render, and a field-mutated message is the pristine model
//! with exactly one field perturbed by [`Mutator::mutate_model`]. A
//! [`MutationPlan`] does the walk once, at engine construction, and
//! records for every mutation site where its bytes sit and which
//! `LengthOf` slots depend on its length. A mutation then makes the
//! same RNG draws `mutate_model` makes (both are written on the same
//! draw helpers) and writes the pristine bytes plus one patch:
//!
//! * an integer site is re-encoded in place;
//! * a length site is re-encoded from its target's pristine length and
//!   the drawn lie;
//! * a `Bytes`/`Str` run is havocked where it sits, and every length
//!   slot measuring it or one of its enclosing blocks is re-encoded
//!   with the run's length delta;
//! * a choice flip copies the full render of the drawn alternative,
//!   precomputed here, so re-measured names and moved slots need no
//!   special case.

use std::collections::HashMap;

use crate::data_model::write_uint;
use crate::{DataModel, Endian, Field, FieldKind, FieldValue, Generator, Mutator};

/// A data model's pristine render plus everything one field mutation
/// needs to patch it.
///
/// # Examples
///
/// ```
/// use cmfuzz_fuzzer::{DataModel, Endian, Field, Generator, MutationPlan, Mutator};
///
/// let model = DataModel::new("m")
///     .field(Field::length_of("len", "payload", 8, Endian::Big).immutable())
///     .field(Field::bytes("payload", b"abcd"));
/// let plan = MutationPlan::new(&model);
/// assert_eq!(plan.pristine(), &[4, b'a', b'b', b'c', b'd'][..]);
///
/// // One mutation draws what `mutate_model` draws and renders what
/// // `Generator::render` renders for the mutated clone.
/// let (mut a, mut b) = (Mutator::new(7), Mutator::new(7));
/// let mut patched = Vec::new();
/// plan.mutate_into(&mut a, &mut patched);
/// let mut clone = model.clone();
/// b.mutate_model(&mut clone);
/// assert_eq!(patched, Generator::render(&clone));
/// assert_eq!(a.rng_state(), b.rng_state());
/// ```
#[derive(Debug, Clone)]
pub struct MutationPlan {
    pristine: Vec<u8>,
    /// Mutation sites in `count_mutable`/`nth_mutable` order.
    sites: Vec<Site>,
}

/// One mutation site: its kind and the byte span it renders to.
#[derive(Debug, Clone)]
struct Site {
    start: usize,
    end: usize,
    kind: SiteKind,
}

#[derive(Debug, Clone)]
enum SiteKind {
    /// An integer of `end - start` bytes.
    UInt { bits: u8, endian: Endian },
    /// A length field; `measured` is its target's pristine length (0 for
    /// an unknown target).
    LengthOf { endian: Endian, measured: i64 },
    /// A choice: the full model render with each alternative selected.
    Choice { renders: Vec<Vec<u8>> },
    /// A byte run (`text` for a `Str`, which is made valid UTF-8 after
    /// havoc) and the length slots its length feeds.
    Run { text: bool, slots: Vec<Slot> },
    /// A site whose value does not match its kind: `mutate_model` picks
    /// it, draws nothing more and changes no byte.
    Inert,
}

/// A rendered `LengthOf` slot whose value follows a run's length.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Byte offset in the pristine render.
    offset: usize,
    width: usize,
    endian: Endian,
    /// Pristine measured length plus the slot's adjustment, unclamped.
    value: i64,
}

impl MutationPlan {
    /// Builds the plan of `model`: its pristine render, its sites and, for
    /// each choice site, the render of every alternative.
    #[must_use]
    pub fn new(model: &DataModel) -> Self {
        let pristine = Generator::render(model);
        let mut walk = Walk::default();
        walk.fields(model.fields(), None, true);
        debug_assert_eq!(walk.pos, pristine.len(), "walk and render disagree");

        let mut sites = Vec::with_capacity(walk.sites.len());
        for (nth, &node) in walk.sites.iter().enumerate() {
            let Node {
                start, end, field, ..
            } = walk.nodes[node];
            let kind = match field.kind() {
                FieldKind::UInt { bits, endian } => SiteKind::UInt {
                    bits: *bits,
                    endian: *endian,
                },
                FieldKind::LengthOf { of, endian, .. } => SiteKind::LengthOf {
                    endian: *endian,
                    measured: walk.measured(of),
                },
                FieldKind::Choice { options, .. } => SiteKind::Choice {
                    renders: (0..options.len())
                        .map(|k| render_with_choice(model, nth, k))
                        .collect(),
                },
                FieldKind::Bytes | FieldKind::Str if run_len(field).is_some() => SiteKind::Run {
                    text: matches!(field.kind(), FieldKind::Str),
                    slots: walk.slots_fed_by(node),
                },
                _ => SiteKind::Inert,
            };
            sites.push(Site { start, end, kind });
        }
        MutationPlan { pristine, sites }
    }

    /// The model's render, as [`Generator::render`] gives it.
    #[must_use]
    pub fn pristine(&self) -> &[u8] {
        &self.pristine
    }

    /// Appends the render of the model with one field mutated by
    /// `mutator`: the same RNG draws and the same bytes as
    /// [`Mutator::mutate_model`] on a pristine clone followed by
    /// [`Generator::render`]. A model without mutation sites appends its
    /// pristine bytes and draws nothing. Performs no heap allocation
    /// beyond `out`'s own growth.
    pub fn mutate_into(&self, mutator: &mut Mutator, out: &mut Vec<u8>) {
        if self.sites.is_empty() {
            out.extend_from_slice(&self.pristine);
            return;
        }
        let base = out.len();
        let site = &self.sites[mutator.pick_site(self.sites.len())];
        let span = base + site.start..base + site.end;
        match &site.kind {
            SiteKind::UInt { bits, endian } => {
                let value = mutator.draw_uint(*bits);
                out.extend_from_slice(&self.pristine);
                write_uint(&mut out[span], value, *endian);
            }
            SiteKind::LengthOf { endian, measured } => {
                let value = measured + mutator.draw_adjust();
                out.extend_from_slice(&self.pristine);
                write_uint(&mut out[span], value.max(0) as u64, *endian);
            }
            SiteKind::Choice { renders } => {
                out.extend_from_slice(&renders[mutator.draw_choice(renders.len())]);
            }
            SiteKind::Run { text, slots } => {
                out.extend_from_slice(&self.pristine[..site.end]);
                mutator.havoc_field(out, span.start);
                if *text {
                    make_utf8_tail(out, span.start);
                }
                let delta = (out.len() - span.start) as i64 - (site.end - site.start) as i64;
                out.extend_from_slice(&self.pristine[site.end..]);
                for slot in slots {
                    let at = if slot.offset < site.start {
                        base + slot.offset
                    } else {
                        (base + slot.offset).wrapping_add_signed(delta as isize)
                    };
                    let value = (slot.value + delta).max(0) as u64;
                    write_uint(&mut out[at..at + slot.width], value, slot.endian);
                }
            }
            SiteKind::Inert => out.extend_from_slice(&self.pristine),
        }
    }
}

/// The render of `model` with its `nth` mutation site, a choice,
/// selecting alternative `k`.
fn render_with_choice(model: &DataModel, nth: usize, k: usize) -> Vec<u8> {
    let mut alternative = model.clone();
    if let Some(FieldKind::Choice { selected, .. }) =
        alternative.nth_mutable(nth).map(Field::kind_mut)
    {
        *selected = k;
    }
    Generator::render(&alternative)
}

/// The rendered length of a `Bytes`/`Str` field whose value matches its
/// kind; `None` for a mismatched value, which renders nothing.
fn run_len(field: &Field) -> Option<usize> {
    match (field.kind(), field.value()) {
        (FieldKind::Bytes, FieldValue::Bytes(b)) => Some(b.len()),
        (FieldKind::Str, FieldValue::Str(s)) => Some(s.len()),
        _ => None,
    }
}

/// Replaces `data[from..]` by its lossy UTF-8 form, exactly as
/// `String::from_utf8_lossy` would render it, without a second buffer:
/// the converted run is appended after the original, which is then
/// removed.
fn make_utf8_tail(data: &mut Vec<u8>, from: usize) {
    let end = data.len();
    if std::str::from_utf8(&data[from..]).is_ok() {
        return;
    }
    let mut pos = from;
    while pos < end {
        match std::str::from_utf8(&data[pos..end]) {
            Ok(_) => {
                data.extend_from_within(pos..end);
                break;
            }
            Err(err) => {
                let valid = err.valid_up_to();
                data.extend_from_within(pos..pos + valid);
                data.extend_from_slice("\u{FFFD}".as_bytes());
                match err.error_len() {
                    Some(bad) => pos += valid + bad,
                    None => break,
                }
            }
        }
    }
    data.drain(from..end);
}

/// One rendered field of the pristine walk.
#[derive(Debug, Clone, Copy)]
struct Node<'m> {
    field: &'m Field,
    start: usize,
    end: usize,
    parent: Option<usize>,
}

/// A rendered `LengthOf` field of the pristine walk.
#[derive(Debug, Clone, Copy)]
struct RenderedSlot<'m> {
    of: &'m str,
    offset: usize,
    width: usize,
    endian: Endian,
    adjust: i64,
}

/// The pristine walk: the same visit order, byte positions and
/// last-measurement-wins name map as [`Generator::render`].
#[derive(Debug, Default)]
struct Walk<'m> {
    nodes: Vec<Node<'m>>,
    slots: Vec<RenderedSlot<'m>>,
    /// Node of each mutation site, in `nth_mutable` order.
    sites: Vec<usize>,
    /// Field name → the node whose measurement the renderer keeps for it.
    measured_by: HashMap<&'m str, usize>,
    pos: usize,
}

impl<'m> Walk<'m> {
    /// Walks `fields` under `parent`; `sites` says whether mutation sites
    /// may lie here (outside choices and immutable blocks).
    fn fields(&mut self, fields: &'m [Field], parent: Option<usize>, sites: bool) {
        for field in fields {
            let node = self.nodes.len();
            self.nodes.push(Node {
                field,
                start: self.pos,
                end: self.pos,
                parent,
            });
            let site = sites && field.is_mutable();
            if site && !matches!(field.kind(), FieldKind::Block(_)) {
                self.sites.push(node);
            }
            match field.kind() {
                FieldKind::UInt { bits, .. } => self.pos += usize::from(*bits) / 8,
                FieldKind::Bytes | FieldKind::Str => self.pos += run_len(field).unwrap_or(0),
                FieldKind::LengthOf {
                    of,
                    bits,
                    endian,
                    adjust,
                } => {
                    let width = usize::from(*bits) / 8;
                    self.slots.push(RenderedSlot {
                        of,
                        offset: self.pos,
                        width,
                        endian: *endian,
                        adjust: *adjust,
                    });
                    self.pos += width;
                }
                FieldKind::Block(children) => self.fields(children, Some(node), site),
                FieldKind::Choice { options, selected } => {
                    let chosen = &options[(*selected).min(options.len() - 1)];
                    self.fields(std::slice::from_ref(chosen), Some(node), false);
                }
            }
            self.nodes[node].end = self.pos;
            self.measured_by.insert(field.name(), node);
        }
    }

    /// The length the renderer measures for `name`: its last measurement,
    /// or 0 for a name no rendered field carries.
    fn measured(&self, name: &str) -> i64 {
        self.measured_by.get(name).map_or(0, |&node| {
            let Node { start, end, .. } = self.nodes[node];
            (end - start) as i64
        })
    }

    /// The slots whose measured field is `node` or one of its ancestors,
    /// so whose value moves with `node`'s length.
    fn slots_fed_by(&self, node: usize) -> Vec<Slot> {
        self.slots
            .iter()
            .filter(|slot| {
                let Some(&target) = self.measured_by.get(slot.of) else {
                    return false;
                };
                let mut at = Some(node);
                while let Some(n) = at {
                    if n == target {
                        return true;
                    }
                    at = self.nodes[n].parent;
                }
                false
            })
            .map(|slot| Slot {
                offset: slot.offset,
                width: slot.width,
                endian: slot.endian,
                value: self.measured(slot.of) + slot.adjust,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checks the plan against the reference for `rounds` mutations: the
    /// pristine bytes, then each round's bytes and RNG position.
    fn assert_matches_reference(model: &DataModel, seed: u64, rounds: usize) {
        let plan = MutationPlan::new(model);
        assert_eq!(plan.pristine(), Generator::render(model), "pristine bytes");
        let mut planned = Mutator::new(seed);
        let mut reference = Mutator::new(seed);
        let mut out = Vec::new();
        for round in 0..rounds {
            out.clear();
            out.extend_from_slice(b"arena prefix");
            plan.mutate_into(&mut planned, &mut out);
            let mut clone = model.clone();
            reference.mutate_model(&mut clone);
            assert_eq!(
                &out[12..],
                Generator::render(&clone),
                "round {round}: bytes diverge"
            );
            assert_eq!(&out[..12], b"arena prefix", "round {round}: prefix");
            assert_eq!(
                planned.rng_state(),
                reference.rng_state(),
                "round {round}: RNG draws diverge"
            );
        }
    }

    fn choice_index(model: &mut DataModel, path: &[usize], k: usize) {
        let mut fields = model.fields_mut();
        let (last, parents) = path.split_last().expect("non-empty path");
        for &i in parents {
            let FieldKind::Block(children) = fields[i].kind_mut() else {
                panic!("path crosses a non-block");
            };
            fields = children;
        }
        if let FieldKind::Choice { selected, .. } = fields[*last].kind_mut() {
            *selected = k;
        }
    }

    #[test]
    fn mixed_model_matches_the_renderer() {
        let model = DataModel::new("m")
            .field(Field::uint("a", 16, 0x0102))
            .field(Field::uint_endian("b", 32, 0xA1B2_C3D4, Endian::Little))
            .field(Field::length_of("len", "body", 16, Endian::Big))
            .field(Field::block(
                "body",
                vec![
                    Field::str("s", "hi"),
                    Field::choice(
                        "alt",
                        vec![Field::uint("v0", 8, 7), Field::bytes("v1", b"xy")],
                    ),
                ],
            ))
            .field(Field::bytes("tail", &[9, 9]));
        assert_matches_reference(&model, 1, 300);
    }

    #[test]
    fn length_slot_before_its_target_resolves() {
        let model = DataModel::new("m")
            .field(Field::length_of("len", "p", 8, Endian::Big))
            .field(Field::bytes("p", b"abcd"));
        assert_eq!(
            MutationPlan::new(&model).pristine(),
            &[4, b'a', b'b', b'c', b'd']
        );
        assert_matches_reference(&model, 2, 200);
    }

    #[test]
    fn unknown_length_target_encodes_zero() {
        let model = DataModel::new("m")
            .field(Field::length_of("len", "ghost", 8, Endian::Big))
            .field(Field::bytes("p", b"abc"));
        assert_eq!(MutationPlan::new(&model).pristine()[0], 0);
        assert_matches_reference(&model, 3, 200);
    }

    #[test]
    fn duplicate_names_use_the_last_measurement() {
        let model = DataModel::new("m")
            .field(Field::length_of("len", "p", 8, Endian::Big))
            .field(Field::bytes("p", b"ab"))
            .field(Field::bytes("p", b"wxyz"));
        assert_eq!(MutationPlan::new(&model).pristine()[0], 4, "last p wins");
        assert_matches_reference(&model, 4, 300);
    }

    #[test]
    fn every_choice_alternative_is_rendered() {
        // Alternatives re-measure names: `p` inside an option shadows the
        // earlier `p` only while that option is selected.
        let model = DataModel::new("m")
            .field(Field::length_of("len", "p", 8, Endian::Big))
            .field(Field::bytes("p", b"abc"))
            .field(Field::choice(
                "alt",
                vec![
                    Field::uint("v0", 8, 0),
                    Field::bytes("p", b"wxyz0123"),
                    Field::length_of("inner", "alt", 16, Endian::Little),
                ],
            ));
        let plan = MutationPlan::new(&model);
        let SiteKind::Choice { renders } = &plan.sites.last().expect("choice site").kind else {
            panic!("last site is the choice");
        };
        for (k, render) in renders.iter().enumerate() {
            let mut selected = model.clone();
            choice_index(&mut selected, &[2], k);
            assert_eq!(render, &Generator::render(&selected), "alternative {k}");
        }
        assert_matches_reference(&model, 5, 300);
    }

    #[test]
    fn synthetic_model_covers_every_patch_kind() {
        // A choice flip, a duplicate name, a length measuring an ancestor
        // of a byte run, an empty run, a string havocked into invalid
        // UTF-8, 24-bit and little-endian integers, and an immutable
        // block whose fields are not sites.
        let model = DataModel::new("synthetic")
            .field(Field::uint("kind", 8, 0x30).immutable())
            .field(Field::length_of("total", "frame", 24, Endian::Big))
            .field(Field::block(
                "frame",
                vec![
                    Field::uint("id", 24, 0x0A0B0C),
                    Field::uint_endian("flags", 32, 0x0102_0304, Endian::Little),
                    Field::length_of("body_len", "body", 16, Endian::Little),
                    Field::block(
                        "body",
                        vec![
                            Field::str("topic", "a/b/\u{e9}"),
                            Field::bytes("empty", b""),
                            Field::bytes("dup", b"12"),
                        ],
                    ),
                    Field::bytes("dup", b"345"),
                    Field::length_of("dup_len", "dup", 8, Endian::Big),
                    Field::choice(
                        "qos",
                        vec![
                            Field::uint("q0", 8, 0),
                            Field::block("q1", vec![Field::uint("qq", 16, 1)]),
                        ],
                    ),
                ],
            ))
            .field(Field::block("fixed", vec![Field::bytes("magic", b"MQ")]).immutable())
            .field(Field::uint_endian("crc", 64, 0xDEAD_BEEF, Endian::Little));
        let plan = MutationPlan::new(&model);
        let mut reference = model.clone();
        assert_eq!(plan.sites.len(), reference.count_mutable());
        assert!(reference.nth_mutable(plan.sites.len()).is_none());
        assert_matches_reference(&model, 6, 2_000);

        // The walk must have produced at least one invalid-UTF-8 repair.
        let mut mutator = Mutator::new(6);
        let repaired = (0..2_000).any(|_| {
            let mut clone = model.clone();
            let name = mutator.mutate_model(&mut clone).map(str::to_owned);
            name.as_deref() == Some("topic")
                && Generator::render(&clone)
                    .windows(3)
                    .any(|w| w == "\u{FFFD}".as_bytes())
        });
        assert!(repaired, "no havoc produced invalid UTF-8");
    }

    #[test]
    fn model_without_sites_renders_pristine_and_draws_nothing() {
        let model = DataModel::new("m").field(Field::uint("a", 8, 1).immutable());
        let plan = MutationPlan::new(&model);
        let mut mutator = Mutator::new(8);
        let before = mutator.rng_state();
        let mut out = Vec::new();
        plan.mutate_into(&mut mutator, &mut out);
        assert_eq!(out, vec![1]);
        assert_eq!(mutator.rng_state(), before);
    }

    #[test]
    fn mismatched_value_is_an_inert_site() {
        let mut model = DataModel::new("m")
            .field(Field::bytes("b", b"xy"))
            .field(Field::uint("a", 8, 1));
        *model.fields_mut()[0].value_mut() = FieldValue::Str("no".to_owned());
        assert_matches_reference(&model, 9, 100);
    }

    #[test]
    fn utf8_tail_matches_from_utf8_lossy() {
        let cases: [&[u8]; 7] = [
            b"plain",
            b"",
            &[0xff],
            &[b'a', 0xc3],
            &[0xe2, 0x82, b'x', 0xe2, 0x82, 0xac, 0xf0, 0x9f],
            &[0xed, 0xa0, 0x80, b'z'],
            &[0xc0, 0x80, 0xf5, 0x80, b'k', 0x80],
        ];
        for case in cases {
            let mut data = b"prefix".to_vec();
            data.extend_from_slice(case);
            make_utf8_tail(&mut data, 6);
            assert_eq!(&data[..6], b"prefix");
            assert_eq!(
                &data[6..],
                String::from_utf8_lossy(case).as_bytes(),
                "{case:?}"
            );
        }
    }
}
