//! Byte pins for the wire encoders: the length and `fnv1a_bytes` of
//! every Figure-4 XCV100 container (incremental and wholesale), of a
//! seeded block of `conformance::wire_content` containers (base-free
//! and delta-coded against their base), and of one `JWR1` reply.
//!
//! An encoder change that is meant to keep the format must leave every
//! pin as it is. Huffman ties are a sharp case: every tie order gives an
//! optimal code, so container lengths cannot tell two builders apart,
//! but the code-length tables, and so the bytes, differ.

use cadflow::netlist::Netlist;
use fleet::ServingLibrary;
use jpg::workflow::{base_modules, build_base, fig4, FIG4_DEVICE};
use wire::fnv1a_bytes;

/// Per Figure-4 entry, in catalogue order: the incremental container,
/// then the wholesale one.
const FIG4: &[(usize, u32)] = &[
    (108, 0x72415845),
    (940, 0x111d5843),
    (720, 0xb4f1b281),
    (936, 0x10b8b76b),
    (1148, 0xca03d7b7),
    (1060, 0x98176d8d),
    (108, 0x72415845),
    (448, 0xcd985069),
    (1692, 0x28b6f256),
    (420, 0xbd55481b),
    (1576, 0x69e7fbc3),
    (452, 0x82269387),
    (108, 0x72415845),
    (1108, 0x9ae8e5a8),
    (1476, 0x18c84c3f),
    (1168, 0x588f11e8),
    (1776, 0x6f99a91f),
    (1108, 0x86992823),
    (1832, 0x492996d0),
    (1224, 0xdd4336d0),
];

/// Per seed of [`CONTENT_SEEDS`]: the base-free container, then the one
/// delta-coded against the case's base image.
const CONTENT: &[(usize, u32)] = &[
    (6052, 0x21350ad6),
    (1376, 0x2fb42e3d),
    (6144, 0x2b111207),
    (1384, 0x503614e6),
    (2376, 0x763b49fe),
    (1376, 0xa0a46968),
    (8704, 0xe8adec04),
    (3444, 0x69a74bb0),
    (1992, 0x8c07e098),
    (1900, 0x95386f4e),
    (1624, 0xe013b3c1),
    (1052, 0x9285026a),
    (2920, 0xbe74ea98),
    (2636, 0x47931eb9),
    (2120, 0x5d89b61e),
    (1196, 0x177f59aa),
    (2388, 0x6377c07d),
    (1964, 0x9dd168d0),
    (1652, 0x27883a57),
    (1128, 0x3b17fc21),
    (4296, 0xf250dd6e),
    (2560, 0xbdf13c03),
    (2848, 0xd081f459),
    (1244, 0x362292af),
    (2108, 0x3453ff68),
    (2028, 0x11cf49da),
    (3184, 0x61efd6b5),
    (1320, 0x427c5652),
    (3176, 0x6453cb71),
    (1192, 0x23ff490a),
    (3464, 0x2e9fdb99),
    (1964, 0x85df9397),
    (3324, 0x2b003734),
    (2116, 0xa5d5eabe),
    (2836, 0x286b047d),
    (2836, 0x286b047d),
    (4352, 0x6247da6f),
    (2972, 0x5b9dae6d),
    (1484, 0xa7cb08e0),
    (1484, 0xa7cb08e0),
    (6172, 0x17125d48),
    (3692, 0xc3cca44e),
    (1552, 0x54b0556f),
    (1552, 0x54b0556f),
    (6536, 0x0dd04cbd),
    (2536, 0x2008fa2d),
    (5416, 0xeac82358),
    (3132, 0x593d6f89),
    (1260, 0xcc02d1de),
    (1212, 0xd5ba2258),
    (2504, 0x6960d4a2),
    (2252, 0xf305bde1),
    (1588, 0x1728506b),
    (1588, 0x1728506b),
    (8896, 0xce995abd),
    (3856, 0x4506317b),
    (5244, 0x1401064a),
    (4048, 0x508250fc),
    (1012, 0x0453b7f5),
    (968, 0x85838152),
    (2260, 0x0c77364a),
    (2260, 0x0c77364a),
    (1180, 0x0098aeff),
    (920, 0x2f0299a5),
    (4412, 0x049c999e),
    (3136, 0x037d6d7d),
    (1164, 0x922d9f29),
    (1164, 0x922d9f29),
    (1268, 0xfd427d51),
    (1036, 0x7ccf0105),
    (1944, 0xec272c2c),
    (1180, 0x793d2703),
    (1124, 0x863a5138),
    (1124, 0x863a5138),
    (1868, 0x6a0cb0e9),
    (1556, 0x4458775c),
    (1056, 0xef319433),
    (1056, 0xef319433),
    (6656, 0xcf6a8653),
    (2648, 0xa7674beb),
];

/// Seeds of the conformance content block.
const CONTENT_SEEDS: std::ops::Range<u64> = 0..40;

/// The reply that ships the Figure-4 base stream's words back.
const REPLY: (usize, u32) = (824, 0x706566cc);

fn pin(bytes: &[u8]) -> (usize, u32) {
    (bytes.len(), fnv1a_bytes(bytes))
}

fn table(pins: &[(usize, u32)]) -> String {
    pins.iter()
        .map(|(len, h)| format!("    ({len}, {h:#010x}),\n"))
        .collect()
}

#[test]
fn encoded_bytes_match_the_pinned_containers() {
    let regions = fig4();
    let base =
        build_base("fig4", FIG4_DEVICE, &base_modules(&regions), 11).expect("Figure-4 base builds");
    let catalogues: Vec<(String, Vec<Netlist>)> = (regions.iter())
        .map(|r| (r.prefix.clone(), r.variants.clone()))
        .collect();
    let library = ServingLibrary::build(&base, &catalogues, 5).expect("library builds");
    let mut fig4 = Vec::new();
    for (r, cat) in library.regions().iter().enumerate() {
        for v in 0..cat.variants.len() {
            let e = library.resolve(r, v).0.expect("entry generates");
            fig4.push(pin(&e.wire_incremental.bytes));
            fig4.push(pin(&e.wire_wholesale.bytes));
        }
    }

    let mut content = Vec::new();
    for seed in CONTENT_SEEDS {
        let c = conformance::wire_content(seed);
        let base = &c.base as &dyn wire::FrameSource;
        content.push(pin(&wire::encode(c.device, &c.partial, None).bytes));
        content.push(pin(&wire::encode(c.device, &c.partial, Some(base)).bytes));
    }

    let reply = pin(&wire::encode_reply(library.base_bitstream().words()).bytes);

    assert!(
        fig4 == FIG4,
        "Figure-4 containers moved; now:\n{}",
        table(&fig4)
    );
    assert!(
        content == CONTENT,
        "conformance containers moved; now:\n{}",
        table(&content)
    );
    assert_eq!(reply, REPLY, "reply container moved");
}
