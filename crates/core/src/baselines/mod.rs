//! The two previously proposed techniques the paper compares against:
//! voltage-threshold sensing (\[10\], Joseph/Brooks/Martonosi HPCA'03) and
//! pipeline damping (\[14\], Powell/Vijaykumar ISCA'03).

mod damping;
mod voltage_sensor;

pub use damping::{DampingConfig, PipelineDamping};
pub use voltage_sensor::{SensorConfig, VoltageSensor};

/// The capacity to reserve up front for a per-run delay line or history
/// window that holds up to `len + 1` values. `len` is a `u32` from a config,
/// a grid spec or a job frame, and reserving all of it at once can ask for
/// tens of gigabytes before the first cycle; past 1024 slots the buffer
/// grows as cycles are simulated, which holds the same values in the same
/// order.
pub(crate) fn reserved_slots(len: u32) -> usize {
    (len as usize).saturating_add(1).min(1024)
}
