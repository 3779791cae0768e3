//! Snapshot codec for the HDP posterior: the section payloads a durable
//! [`crate::PosteriorSnapshot`] checkpoint is made of.
//!
//! The container framing (magic, version, CRCs) lives in
//! [`osr_stats::snapshot`]; this module owns only the *section* byte
//! layouts for the franchise state. Each posterior fact is written once:
//!
//! * the base measure and the sampler configuration;
//! * the dish menu's per-id live flags;
//! * per group, its points and its tables (each table's dish and member
//!   list, in the sampler's order);
//! * the concentrations γ and α₀;
//! * per live dish, in dish-id order, κₙ, νₙ, μₙ, the packed factor and
//!   Ψₙ — their bits come from the fit's update history, so they cannot be
//!   recomputed.
//!
//! Everything else is derived in one place, [`read_sections`]: each item's
//! seat from the member lists, each dish's table and item counts from the
//! tables, its bank slot from its rank among the live ids
//! ([`DishBank::decoded_slot`]), and the predictive constants, caches and
//! live-dish index through the code paths a freshly trained sampler uses.
//! A derived value cannot disagree with the fact it is derived from, so the
//! audit only has to reject what the sampler itself never produces: a
//! member out of range or listed twice, an item listed nowhere, an empty
//! table, a table serving a retired dish, and a live dish no table serves.
//! The seat-move counter is not stored (only its per-sweep delta is read).
//! Writing canonical state only is what makes save → load → re-save
//! byte-identical and a reloaded replica bit-equal to the original.
//!
//! Deliberately named `persist`, not `snapshot`: the workspace lint scopes
//! its `snapshot-versioned` rule to `*/snapshot.rs` files, which are the
//! modules that own serializable container/report types.

use std::sync::Arc;

use osr_stats::snapshot::{Dec, Enc, SnapResult, SnapshotError, SnapshotFile, SnapshotWriter};
use osr_stats::{DishBank, NiwParams};

use crate::state::{DishMenu, HdpConfig, HdpState, Table};
use crate::Points;

/// Section id of the base-measure hyperparameters (NIW prior).
pub const SEC_PARAMS: u32 = 1;
/// Section id of the sampler configuration.
pub const SEC_HDP_CONFIG: u32 = 2;
/// Section id of the seating arrangement (dish menu, groups with their
/// tables, concentrations).
pub const SEC_SEATING: u32 = 3;
/// Section id of the dish bank (each live dish's NIW posterior).
pub const SEC_BANK: u32 = 4;

/// Append every HDP section to `w`.
pub(crate) fn write_sections(state: &HdpState, config: &HdpConfig, w: &mut SnapshotWriter) {
    let mut enc = Enc::new();
    state.params.encode_into(&mut enc);
    w.section(SEC_PARAMS, enc.into_bytes());

    let mut enc = Enc::new();
    enc.put_f64(config.gamma_prior.0);
    enc.put_f64(config.gamma_prior.1);
    enc.put_f64(config.alpha_prior.0);
    enc.put_f64(config.alpha_prior.1);
    enc.put_bool(config.resample_concentrations);
    enc.put_usize(config.iterations);
    w.section(SEC_HDP_CONFIG, enc.into_bytes());

    let mut enc = Enc::new();
    state.menu.encode_into(&mut enc);
    enc.put_usize(state.groups.len());
    for (group, tables) in state.groups.iter().zip(&state.tables) {
        enc.put_usize(group.len());
        enc.put_f64_slice(group.as_flat());
        enc.put_usize(tables.len());
        for table in tables {
            enc.put_usize(table.dish);
            enc.put_usize(table.members.len());
            for &member in &table.members {
                enc.put_usize(member);
            }
        }
    }
    enc.put_f64(state.gamma);
    enc.put_f64(state.alpha);
    w.section(SEC_SEATING, enc.into_bytes());

    let mut enc = Enc::new();
    state.bank.encode_into(state.menu.live_slots(), &mut enc);
    w.section(SEC_BANK, enc.into_bytes());
}

/// Decode every HDP section of a verified container back into snapshot
/// parts, deriving the seats, counts and slots the wire leaves out and
/// auditing the seating so a later sweep can never panic on state a
/// corrupted-but-CRC-valid writer produced: every such state is
/// [`SnapshotError::Malformed`].
pub(crate) fn read_sections(file: &SnapshotFile<'_>) -> SnapResult<(HdpState, HdpConfig)> {
    let mut dec = Dec::new(file.section(SEC_PARAMS)?);
    let params = NiwParams::decode_from(&mut dec)?;
    dec.finish("params section")?;
    if params.dim() != file.dim() {
        return Err(SnapshotError::DimensionMismatch {
            expected: file.dim(),
            got: params.dim(),
        });
    }

    let mut dec = Dec::new(file.section(SEC_HDP_CONFIG)?);
    let config = HdpConfig {
        gamma_prior: (dec.f64("gamma_prior shape")?, dec.f64("gamma_prior rate")?),
        alpha_prior: (dec.f64("alpha_prior shape")?, dec.f64("alpha_prior rate")?),
        resample_concentrations: dec.bool("resample_concentrations")?,
        iterations: dec.usize("iterations")?,
    };
    dec.finish("config section")?;
    config
        .validate()
        .map_err(|e| SnapshotError::Malformed(format!("HdpConfig: {e}")))?;

    let malformed = |msg: String| Err(SnapshotError::Malformed(msg));
    let d = params.dim();
    let mut dec = Dec::new(file.section(SEC_SEATING)?);
    let mut menu = DishMenu::decode_from(&mut dec)?;
    // Items seated at each dish id's tables: the bank's counts `n`.
    let mut dish_items = vec![0usize; menu.n_ids()];
    let n_groups = dec.count(2 * 8, "group count")?;
    let mut groups = Vec::with_capacity(n_groups);
    let mut assignment = Vec::with_capacity(n_groups);
    let mut tables = Vec::with_capacity(n_groups);
    for j in 0..n_groups {
        // `count` has checked that `len` rows of `d` coordinates fit in
        // the section, so the product cannot overflow.
        let len = dec.count(8 * d, "group length")?;
        let points = dec.f64_vec(len * d, "group point")?;
        if let Some(c) = points.iter().position(|v| !v.is_finite()) {
            return malformed(format!("group {j} point {} has a non-finite coordinate", c / d));
        }
        // Every table lists at least one member: dish, count and member.
        let n_tables = dec.count(3 * 8, "table count")?;
        let mut seats = vec![usize::MAX; len];
        let mut group_tables = Vec::with_capacity(n_tables);
        for t in 0..n_tables {
            let dish = dec.usize("table dish")?;
            match menu.n_tables_mut(dish) {
                Some(served) => *served += 1,
                None => return malformed(format!("group {j} table {t} serves unknown dish {dish}")),
            }
            let n_members = dec.count(8, "table member count")?;
            if n_members == 0 {
                return malformed(format!("group {j} table {t} has no members"));
            }
            dish_items[dish] += n_members;
            let mut members = Vec::with_capacity(n_members);
            for _ in 0..n_members {
                let i = dec.usize("table member")?;
                match seats.get_mut(i) {
                    None => {
                        return malformed(format!(
                            "group {j} table {t} lists member {i} of a group of {len}"
                        ))
                    }
                    Some(seat) if *seat != usize::MAX => {
                        return malformed(format!("group {j} table {t} lists member {i} twice"))
                    }
                    Some(seat) => *seat = t,
                }
                members.push(i);
            }
            group_tables.push(Table { dish, members });
        }
        if let Some(i) = seats.iter().position(|&t| t == usize::MAX) {
            return malformed(format!("group {j} item {i} sits at no table"));
        }
        groups.push(Arc::new(Points::from_flat(d, len, points)));
        assignment.push(seats);
        tables.push(group_tables);
    }
    let gamma = dec.f64("gamma")?;
    let alpha = dec.f64("alpha")?;
    dec.finish("seating section")?;
    if !(gamma.is_finite() && gamma > 0.0 && alpha.is_finite() && alpha > 0.0) {
        return malformed(format!("concentrations gamma = {gamma}, alpha = {alpha} out of domain"));
    }
    let mut counts = Vec::with_capacity(menu.n_live());
    for (id, dish) in menu.live() {
        if dish.n_tables == 0 {
            return malformed(format!("live dish {id} is served by no table"));
        }
        counts.push(dish_items[id]);
    }

    let mut dec = Dec::new(file.section(SEC_BANK)?);
    let bank = DishBank::decode_from(&mut dec, &params, &counts)?;
    dec.finish("bank section")?;

    let state = HdpState {
        params,
        groups,
        assignment,
        tables,
        menu,
        bank,
        gamma,
        alpha,
        seat_moves: 0,
        scratch: Default::default(),
    };
    Ok((state, config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Hdp;
    use osr_linalg::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A converged two-group state over 2-D blobs, every table of group 0
    /// with at least one member and one table with two or more. The fit
    /// retires dishes, so the bank holds dead slots for decoding to drop.
    fn trained() -> (HdpState, HdpConfig) {
        let mut rng = StdRng::seed_from_u64(31);
        let blob = |rng: &mut StdRng, cx: f64| -> Vec<Vec<f64>> {
            (0..20)
                .map(|_| {
                    vec![
                        cx + osr_stats::sampling::standard_normal(rng),
                        osr_stats::sampling::standard_normal(rng),
                    ]
                })
                .collect()
        };
        let groups = [blob(&mut rng, -5.0), blob(&mut rng, 5.0)];
        let params =
            NiwParams::new(vec![0.0, 0.0], 1.0, 5.0, Matrix::identity(2)).unwrap();
        let config = HdpConfig { iterations: 5, ..Default::default() };
        let mut hdp = Hdp::new(params, config, &groups).unwrap();
        hdp.run(&mut rng);
        (hdp.state().clone(), config)
    }

    /// Encode `state` into a container whose CRCs are all valid.
    fn encode(state: &HdpState, config: &HdpConfig) -> Vec<u8> {
        let mut w = SnapshotWriter::new("cdosr", state.params.dim());
        write_sections(state, config, &mut w);
        w.finish()
    }

    /// Decode `bytes`, auditing every decoded state with the sampler's own
    /// invariant check (the derived seats, counts and slots included).
    fn decode(bytes: &[u8]) -> SnapResult<(HdpState, HdpConfig)> {
        let decoded = read_sections(&SnapshotFile::parse(bytes)?)?;
        decoded.0.check_invariants();
        Ok(decoded)
    }

    /// The `Malformed` message a crafted state decodes to.
    fn malformed(state: &HdpState, config: &HdpConfig) -> String {
        match decode(&encode(state, config)) {
            Err(SnapshotError::Malformed(msg)) => msg,
            Err(other) => panic!("expected Malformed, got {other:?}"),
            Ok(_) => panic!("a corrupt seating decoded"),
        }
    }

    #[test]
    fn seating_round_trips_byte_identically() {
        let (state, config) = trained();
        // The fit retired a dish, so decoding compacts the bank.
        assert!(state.bank.n_slots() > state.bank.n_live(), "no dead bank slot to compact");
        let bytes = encode(&state, &config);
        let (decoded, decoded_config) = decode(&bytes).unwrap();
        assert_eq!(decoded.groups, state.groups);
        assert_eq!(decoded.assignment, state.assignment);
        // The live dishes plus the base measure's slot.
        assert_eq!(decoded.bank.n_slots(), state.n_dishes() + 1);
        assert_eq!(decoded.seat_moves, 0);
        assert_eq!(encode(&decoded, &decoded_config), bytes);

        // A warm serve from either state is bit-equal, although a dish the
        // batch nucleates takes a recycled slot in one bank and a fresh one
        // in the other.
        let batch = vec![vec![0.0, 9.0], vec![0.3, 9.2], vec![-5.0, 0.1]];
        let serve = |state: &HdpState| {
            let snap = crate::PosteriorSnapshot::from_parts(state.clone(), config);
            let mut sess = snap.session(&batch).unwrap();
            let mut rng = StdRng::seed_from_u64(5);
            for _ in 0..3 {
                sess.sweep(&mut rng);
            }
            let dishes: Vec<_> = (0..batch.len()).map(|i| sess.dish_of(2, i)).collect();
            (dishes, sess.state().joint_log_likelihood().to_bits(), sess.n_dishes())
        };
        let (served, decoded_served) = (serve(&state), serve(&decoded));
        assert!(served.2 > state.n_dishes(), "the batch nucleated no dish");
        assert_eq!(served, decoded_served);
    }

    #[test]
    fn a_member_listed_twice_is_malformed() {
        let (mut state, config) = trained();
        let table = &mut state.tables[0][0];
        table.members.push(table.members[0]);
        let msg = malformed(&state, &config);
        assert!(msg.contains("group 0 table 0 lists member") && msg.contains("twice"), "{msg}");
    }

    #[test]
    fn a_seated_item_missing_from_every_member_list_is_malformed() {
        let (mut state, config) = trained();
        let t = state.tables[0].iter().position(|t| t.members.len() >= 2).unwrap();
        let dropped = state.tables[0][t].members.pop().unwrap();
        let msg = malformed(&state, &config);
        assert_eq!(msg, format!("group 0 item {dropped} sits at no table"));
    }

    #[test]
    fn a_member_index_out_of_range_is_malformed() {
        let (mut state, config) = trained();
        let len = state.groups[1].len();
        state.tables[1][0].members.push(len + 3);
        let msg = malformed(&state, &config);
        assert_eq!(msg, format!("group 1 table 0 lists member {} of a group of {len}", len + 3));
    }

    #[test]
    fn a_live_dish_no_table_serves_is_malformed() {
        let (mut state, config) = trained();
        // A dish the menu and the bank both hold, but no table serves.
        let id = state.new_dish();
        let msg = malformed(&state, &config);
        assert_eq!(msg, format!("live dish {id} is served by no table"));
    }

    #[test]
    fn a_bank_count_is_derived_from_the_seating() {
        // A bank whose item count disagrees with the seating cannot be
        // written down: the count is not on the wire, and the decoded one
        // is the seating's (`decode` checks the invariants).
        let (mut state, config) = trained();
        let (id, x) = (state.dish_of(0, 0), state.groups[0][0].to_vec());
        state.dish_add(id, &x);
        let (decoded, _) = decode(&encode(&state, &config)).unwrap();
        let slot = decoded.dish(id).slot;
        assert_eq!(decoded.bank.count(slot) + 1, state.bank.count(state.dish(id).slot));
    }

    #[test]
    fn a_non_finite_coordinate_names_its_group_and_point() {
        let (mut state, config) = trained();
        let mut flat = state.groups[1].as_flat().to_vec();
        flat[5 * 2 + 1] = f64::NAN;
        let len = state.groups[1].len();
        state.groups[1] = Arc::new(Points::from_flat(2, len, flat));
        let msg = malformed(&state, &config);
        assert_eq!(msg, "group 1 point 5 has a non-finite coordinate");
    }
}
