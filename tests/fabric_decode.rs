//! `FabricModel::decode` against a reference decoder: the original
//! algorithm, kept here as the oracle. It decodes a `Jbits` session over
//! a clone of the image, tests each tile for use bit by bit, and looks
//! every PIP of a tile in use up through `Jbits::get_pip`. The decoder
//! under test must give an identical model — slices, pads, PIPs in
//! order, clock connectivity — or the identical error.

use jbits::Jbits;
use jpg::workflow::{
    base_modules, build_base, build_library_pipelined, fig4, RegionCatalogue, RegionSpec,
    FIG4_DEVICE,
};
use simboard::fabric::{DecodedIob, DecodedSlice};
use simboard::{DecodeError, FabricModel, SimBoard};
use std::collections::HashMap;
use virtex::{
    ClbResource, ConfigMemory, Device, IobResource, MuxSetting, SliceId, SlicePin, SliceResource,
    TileCoord, Wire, WireKind,
};

fn oracle_tile_in_use(jb: &mut Jbits, tile: TileCoord) -> bool {
    let (frames, slot) = jb.layout().window_bounds(tile);
    frames
        .flat_map(|f| (slot..slot + virtex::config::BITS_PER_ROW).map(move |b| (f, b)))
        .any(|(f, b)| jb.memory().get_bit(f, b))
}

fn oracle_slice(jb: &mut Jbits, tile: TileCoord, slice: SliceId) -> Option<DecodedSlice> {
    let get = |r: SliceResource| jb.get(tile, ClbResource::new(slice, r)).bits();
    let x_on = MuxSetting::decode(get(SliceResource::FxMux)) == Some(MuxSetting::Primary);
    let y_on = MuxSetting::decode(get(SliceResource::GyMux)) == Some(MuxSetting::Primary);
    let (ffx, ffy) = (get(SliceResource::FfX) == 1, get(SliceResource::FfY) == 1);
    if !(ffx || ffy || x_on || y_on) {
        return None;
    }
    Some(DecodedSlice {
        tile,
        slice,
        lut_f: get(SliceResource::Lut(virtex::LutId::F)) as u16,
        lut_g: get(SliceResource::Lut(virtex::LutId::G)) as u16,
        ffx,
        ffy,
        init_x: get(SliceResource::InitX) == 1,
        init_y: get(SliceResource::InitY) == 1,
        dx_bypass: get(SliceResource::DxMux) == 1,
        dy_bypass: get(SliceResource::DyMux) == 1,
        x_on,
        y_on,
        ce: MuxSetting::decode(get(SliceResource::CeMux)).unwrap_or(MuxSetting::Off),
        clocked: false,
    })
}

fn oracle_decode(mem: &ConfigMemory) -> Result<FabricModel, DecodeError> {
    let device = mem.device();
    let mut jb = Jbits::from_memory(mem.clone());
    let graph = virtex::RoutingGraph::new(device);
    let mut model = FabricModel {
        device,
        slices: Vec::new(),
        iobs: Vec::new(),
        pips: Vec::new(),
    };
    let tiles: Vec<TileCoord> = virtex::grid::clb_tiles(device)
        .chain(virtex::grid::iob_tiles(device))
        .collect();
    for tile in tiles {
        if !oracle_tile_in_use(&mut jb, tile) {
            continue;
        }
        if tile.is_clb(device) {
            for slice in SliceId::ALL {
                model.slices.extend(oracle_slice(&mut jb, tile, slice));
            }
        } else {
            for pad in 0..virtex::routing::PADS_PER_IOB as u8 {
                let inbuf = jb.get_iob(tile, pad, IobResource::InputEnable).as_bool();
                let outbuf = jb.get_iob(tile, pad, IobResource::OutputEnable).as_bool();
                if inbuf || outbuf {
                    model.iobs.push(DecodedIob {
                        tile,
                        pad,
                        inbuf,
                        outbuf,
                    });
                }
            }
        }
        for pip in graph.tile_pips(tile) {
            if jb.get_pip(&pip) == Some(true) {
                model.pips.push((pip.from, pip.to));
            }
        }
    }
    let mut drivers: HashMap<Wire, u32> = HashMap::new();
    for (_, to) in &model.pips {
        *drivers.entry(*to).or_insert(0) += 1;
    }
    if let Some((_, w)) = model.pips.iter().find(|(_, to)| drivers[to] > 1) {
        return Err(DecodeError::Contention { wire: w.name() });
    }
    for s in &mut model.slices {
        let clk = Wire::new(
            s.tile,
            WireKind::SlicePin {
                slice: s.slice,
                pin: SlicePin::Clk,
            },
        );
        s.clocked = drivers.contains_key(&clk);
    }
    Ok(model)
}

/// Decode with both decoders, demand identical results, and return the
/// model (or error) for further checks.
fn assert_same_decode(mem: &ConfigMemory, what: &str) -> Result<FabricModel, DecodeError> {
    let got = FabricModel::decode(mem);
    assert_eq!(got, oracle_decode(mem), "{what}: decoders diverge");
    got
}

#[test]
fn fig4_base_and_every_variant_decode_like_the_oracle() {
    let regions = fig4();
    let base =
        build_base("fig4", FIG4_DEVICE, &base_modules(&regions), 11).expect("Figure-4 base builds");
    let model = assert_same_decode(&base.memory, "Figure-4 base").expect("base decodes");
    assert!(!model.slices.is_empty() && !model.iobs.is_empty() && !model.pips.is_empty());
    assert!(model.slices.iter().any(|s| s.clocked));

    let cats: Vec<RegionCatalogue<'_>> = regions.iter().map(RegionSpec::catalogue).collect();
    let library = build_library_pipelined(&base, &cats, 5, false).expect("library builds");
    assert_eq!(library.len(), 10);

    let mut board = SimBoard::new(FIG4_DEVICE);
    jbits::Xhwif::set_configuration(&mut board, &base.bitstream.bitstream).unwrap();
    for (prefix, name, partial) in &library {
        jbits::Xhwif::set_configuration(&mut board, &partial.bitstream).unwrap();
        let mem = board.port().interpreter().memory();
        let model = assert_same_decode(mem, &format!("{prefix}{name}")).unwrap();
        assert_eq!(&model, board.fabric().unwrap().model(), "{prefix}{name}");
    }
}

#[test]
fn campaign_images_decode_like_the_oracle_on_every_device() {
    let mut pips = 0;
    for device in Device::ALL {
        // The first two campaign seeds that land on `device`.
        let campaigns = (0u64..)
            .map(conformance::Campaign::generate)
            .filter(|c| c.device == device)
            .take(2);
        for campaign in campaigns {
            let image = campaign.apply(&ConfigMemory::new(device));
            let what = format!("campaign seed {} on {device}", campaign.seed);
            if let Ok(model) = assert_same_decode(&image, &what) {
                pips += model.pips.len();
            }
        }
    }
    assert!(pips > 0, "no campaign image enabled a PIP");
}
