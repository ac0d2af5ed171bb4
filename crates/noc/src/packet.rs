//! Packets and the head-flit image that carries their addressing.

use crate::config::NodeId;
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

    #[test]
    fn head_metadata_roundtrips() {
        let head = encode_head_payload(128, 12, 63, 51, 0xdead_beef);
        let (src, dst, len, tag) = decode_head_payload(&head);
        assert_eq!((src, dst, len, tag), (12, 63, 51, 0xdead_beef));
    }
}
