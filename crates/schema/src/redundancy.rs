//! FD-induced redundancy groups.
//!
//! For an FD `X → Y`, all entity instances sharing a determinant tuple
//! hold *copies of the same logical `Y` value*. The paper's challenge (C)
//! observes that if those copies were watermarked independently, "the
//! watermark can be erased easily by making all the duplicates identical".
//! A [`RedundancyGroup`] materializes one such duplicate set so the
//! encoder can (a) treat it as a *single* watermark unit identified by
//! the FD name and determinant tuple (not by any entity key), and (b)
//! write the *same* mark into every member.

use crate::fd::Fd;
use std::collections::btree_map::{BTreeMap, Entry};
use wmx_xml::Document;
use wmx_xpath::{Evaluator, NodeRef};

/// One group of FD-duplicated value nodes.
#[derive(Debug, Clone)]
pub struct RedundancyGroup {
    /// Position of the generating FD in the slice the group was
    /// discovered over.
    pub fd: usize,
    /// The shared determinant tuple.
    pub lhs: Box<[Box<str>]>,
    /// All value nodes holding copies of the dependent tuple, across all
    /// instances in the group (instance-major order).
    pub members: Vec<NodeRef>,
}

impl RedundancyGroup {
    /// Whether the group actually contains duplicates (≥ 2 members).
    pub fn is_redundant(&self) -> bool {
        self.members.len() >= 2
    }
}

/// Discovers all redundancy groups induced by `fds` over `doc`.
///
/// Instances missing the determinant or dependent are skipped (they are
/// outside the FD's scope). Groups are returned in deterministic order
/// (by FD, then determinant tuple).
pub fn discover_groups(doc: &Document, fds: &[Fd]) -> Vec<RedundancyGroup> {
    discover_groups_with(&Evaluator::new(doc), fds)
}

/// [`discover_groups`] through a shared [`Evaluator`], so the caller's
/// memoized symbol resolutions carry across the per-instance
/// determinant/dependent evaluations.
pub fn discover_groups_with(evaluator: &Evaluator<'_>, fds: &[Fd]) -> Vec<RedundancyGroup> {
    let doc = evaluator.document();
    let mut out = Vec::new();
    for (fd_index, fd) in fds.iter().enumerate() {
        let mut groups: BTreeMap<Box<[Box<str>]>, Vec<NodeRef>> = BTreeMap::new();
        'instances: for instance in fd.entity.select_with(evaluator) {
            // Each determinant part is its first hit's string value.
            let mut lhs = Vec::with_capacity(fd.lhs.len());
            for part in &fd.lhs {
                let hits = part.select_from_with(evaluator, instance.clone());
                let Some(first) = hits.first() else {
                    continue 'instances;
                };
                lhs.push(first.string_value(doc).into_boxed_str());
            }
            // Every dependent part must be present; its hits are the
            // instance's members, so each is selected once.
            let mut members = Vec::new();
            for part in &fd.rhs {
                let hits = part.select_from_with(evaluator, instance.clone());
                if hits.is_empty() {
                    continue 'instances;
                }
                if members.is_empty() {
                    members = hits;
                } else {
                    members.extend(hits);
                }
            }
            match groups.entry(lhs.into_boxed_slice()) {
                Entry::Vacant(group) => {
                    group.insert(members);
                }
                Entry::Occupied(mut group) => group.get_mut().extend(members),
            }
        }
        out.extend(groups.into_iter().map(|(lhs, members)| RedundancyGroup {
            fd: fd_index,
            lhs,
            members,
        }));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmx_xml::parse;

    fn doc() -> Document {
        parse(
            r#"<db>
                <book publisher="mkp"><title>A</title><editor>Potter</editor></book>
                <book publisher="mkp"><title>B</title><editor>Potter</editor></book>
                <book publisher="mkp"><title>C</title><editor>Potter</editor></book>
                <book publisher="acm"><title>D</title><editor>Gamer</editor></book>
            </db>"#,
        )
        .unwrap()
    }

    fn fd() -> Fd {
        Fd::new("editor-publisher", "//book", &["editor"], &["@publisher"]).unwrap()
    }

    fn group<'a>(groups: &'a [RedundancyGroup], editor: &str) -> &'a RedundancyGroup {
        groups.iter().find(|g| &*g.lhs[0] == editor).unwrap()
    }

    #[test]
    fn groups_by_determinant() {
        let doc = doc();
        let groups = discover_groups(&doc, &[fd()]);
        assert_eq!(groups.len(), 2);
        let potter = group(&groups, "Potter");
        assert_eq!(potter.members.len(), 3);
        assert!(potter.is_redundant());

        let gamer = group(&groups, "Gamer");
        assert_eq!(gamer.members.len(), 1);
        assert!(!gamer.is_redundant());
    }

    #[test]
    fn unit_id_is_entity_independent() {
        let doc = doc();
        let groups = discover_groups(&doc, &[fd()]);
        let potter = group(&groups, "Potter");
        // The identity is the FD plus the determinant tuple: removing
        // duplicates must not change it.
        let smaller = parse(
            r#"<db>
                <book publisher="mkp"><title>A</title><editor>Potter</editor></book>
            </db>"#,
        )
        .unwrap();
        let groups2 = discover_groups(&smaller, &[fd()]);
        assert_eq!((groups2[0].fd, &groups2[0].lhs), (potter.fd, &potter.lhs));
    }

    #[test]
    fn group_members_are_value_nodes() {
        let doc = doc();
        let groups = discover_groups(&doc, &[fd()]);
        for (editor, publisher) in [("Potter", "mkp"), ("Gamer", "acm")] {
            for m in &group(&groups, editor).members {
                assert_eq!(m.string_value(&doc), publisher);
            }
        }
    }

    #[test]
    fn multiple_fds_yield_separate_groups() {
        let doc = parse(
            r#"<db>
                <book publisher="mkp" country="us"><title>A</title><editor>P</editor></book>
                <book publisher="mkp" country="us"><title>B</title><editor>P</editor></book>
            </db>"#,
        )
        .unwrap();
        let fd1 = Fd::new("ed-pub", "//book", &["editor"], &["@publisher"]).unwrap();
        let fd2 = Fd::new("pub-country", "//book", &["@publisher"], &["@country"]).unwrap();
        let groups = discover_groups(&doc, &[fd1, fd2]);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].fd, 0);
        assert_eq!(groups[1].fd, 1);
    }

    #[test]
    fn empty_without_fds() {
        assert!(discover_groups(&doc(), &[]).is_empty());
    }
}
