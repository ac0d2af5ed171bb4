//! Packets and packet → flit serialization.

use crate::config::NodeId;
use crate::flit::{Flit, FlitKind};
use btr_bits::payload::PayloadBits;

/// A packet awaiting injection: a head flit (metadata) followed by the
/// payload flits produced by the ordering/flitization layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Payload flit images, in transmission order.
    pub payload_flits: Vec<PayloadBits>,
    /// Caller-chosen correlation tag (e.g. task id); encoded into the head
    /// flit image and reported back on delivery.
    pub tag: u64,
}

impl Packet {
    /// Creates a packet.
    #[must_use]
    pub fn new(src: NodeId, dst: NodeId, payload_flits: Vec<PayloadBits>, tag: u64) -> Self {
        Self {
            src,
            dst,
            payload_flits,
            tag,
        }
    }

    /// Total flit count on the wire (head + payload).
    #[must_use]
    pub fn flit_count(&self) -> usize {
        1 + self.payload_flits.len()
    }

    /// Serializes into flits for a link of `link_width_bits`.
    ///
    /// The head flit's payload image encodes `(src, dst, length, tag)` the
    /// way a real head flit carries addressing on the data wires, so head
    /// flits contribute realistic bit transitions.
    ///
    /// # Panics
    ///
    /// Panics if any payload flit is wider than the link.
    #[must_use]
    pub fn to_flits(&self, packet_id: u64, link_width_bits: u32) -> Vec<Flit> {
        let mut flits = Vec::with_capacity(self.flit_count());
        let head_payload = encode_head_payload(
            link_width_bits,
            self.src,
            self.dst,
            self.payload_flits.len() as u32,
            self.tag,
        );
        let last = self.payload_flits.len();
        let head_kind = if last == 0 {
            FlitKind::HeadTail
        } else {
            FlitKind::Head
        };
        flits.push(Flit {
            packet_id,
            kind: head_kind,
            src: self.src,
            dst: self.dst,
            seq: 0,
            payload: head_payload,
        });
        for (i, image) in self.payload_flits.iter().enumerate() {
            assert!(
                image.width() <= link_width_bits,
                "payload flit width {} exceeds link width {link_width_bits}",
                image.width()
            );
            // Re-align narrower images onto the full link width.
            let payload = if image.width() == link_width_bits {
                *image
            } else {
                let mut p = PayloadBits::zero(link_width_bits);
                let mut off = 0;
                while off < image.width() {
                    let len = 64.min(image.width() - off);
                    p.set_field(off, len, image.field(off, len));
                    off += len;
                }
                p
            };
            flits.push(Flit {
                packet_id,
                kind: if i + 1 == last {
                    FlitKind::Tail
                } else {
                    FlitKind::Body
                },
                src: self.src,
                dst: self.dst,
                seq: (i + 1) as u32,
                payload,
            });
        }
        flits
    }
}

/// Encodes head-flit metadata into a link image: 16-bit src, 16-bit dst,
/// 16-bit length, and as many tag bits as fit (LSB-first fields).
#[must_use]
pub fn encode_head_payload(
    link_width_bits: u32,
    src: NodeId,
    dst: NodeId,
    num_payload_flits: u32,
    tag: u64,
) -> PayloadBits {
    let mut p = PayloadBits::zero(link_width_bits);
    write_head_fields(&mut p, src, dst, num_payload_flits, tag);
    p
}

/// Writes the head-flit metadata fields of [`encode_head_payload`] into
/// `p`. Every field is overwritten in full, so on an image that is zero
/// outside them (a previous head at the same width) the result is the
/// encoded head, with no fresh image to zero.
pub(crate) fn write_head_fields(
    p: &mut PayloadBits,
    src: NodeId,
    dst: NodeId,
    num_payload_flits: u32,
    tag: u64,
) {
    p.set_field(0, 16, src as u64);
    p.set_field(16, 16, dst as u64);
    p.set_field(32, 16, u64::from(num_payload_flits));
    let tag_bits = 64.min(p.width().saturating_sub(48));
    if tag_bits > 0 {
        p.set_field(48, tag_bits, tag);
    }
}

/// Decodes the head-flit metadata fields (inverse of
/// [`encode_head_payload`]).
#[must_use]
pub fn decode_head_payload(p: &PayloadBits) -> (NodeId, NodeId, u32, u64) {
    let src = p.field(0, 16) as NodeId;
    let dst = p.field(16, 16) as NodeId;
    let len = p.field(32, 16) as u32;
    let tag_bits = 64.min(p.width().saturating_sub(48));
    let tag = if tag_bits > 0 {
        p.field(48, tag_bits)
    } else {
        0
    };
    (src, dst, len, tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(width: u32, fill: u64) -> PayloadBits {
        let mut p = PayloadBits::zero(width);
        p.set_field(0, 64.min(width), fill);
        p
    }

    #[test]
    fn serialization_marks_kinds() {
        let p = Packet::new(1, 14, vec![image(128, 0xaa), image(128, 0xbb)], 9);
        let flits = p.to_flits(100, 128);
        assert_eq!(flits.len(), 3);
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert_eq!(flits[1].kind, FlitKind::Body);
        assert_eq!(flits[2].kind, FlitKind::Tail);
        assert!(flits
            .iter()
            .all(|f| f.packet_id == 100 && f.src == 1 && f.dst == 14));
        assert_eq!(flits[2].seq, 2);
    }

    #[test]
    fn empty_payload_is_headtail() {
        let p = Packet::new(0, 3, Vec::new(), 1);
        let flits = p.to_flits(0, 64);
        assert_eq!(flits.len(), 1);
        assert_eq!(flits[0].kind, FlitKind::HeadTail);
    }

    #[test]
    fn head_metadata_roundtrips() {
        let head = encode_head_payload(128, 12, 63, 51, 0xdead_beef);
        let (src, dst, len, tag) = decode_head_payload(&head);
        assert_eq!((src, dst, len, tag), (12, 63, 51, 0xdead_beef));
    }

    #[test]
    fn narrow_payloads_are_realigned() {
        let p = Packet::new(0, 1, vec![image(64, u64::MAX)], 0);
        let flits = p.to_flits(0, 128);
        assert_eq!(flits[1].payload.width(), 128);
        assert_eq!(flits[1].payload.popcount(), 64);
    }

    #[test]
    #[should_panic(expected = "exceeds link width")]
    fn oversize_payload_rejected() {
        let p = Packet::new(0, 1, vec![image(256, 1)], 0);
        let _ = p.to_flits(0, 128);
    }
}
