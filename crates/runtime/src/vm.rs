//! Virtualization support: VMs, hypervisor extensions and the vFPGA
//! manager (paper IV, refs \[32\], \[33\]).
//!
//! "Hardware configurable parameters, including accelerator APIs, are
//! exposed directly to the applications inside the VMs" — guests hold
//! *virtual FPGA handles* granted by the [`VfpgaManager`], which maps them
//! onto physical partial-reconfiguration slots.

use crate::error::{RuntimeError, RuntimeResult};
use everest_hls::AreaReport;
use everest_platform::fpga::{FpgaDevice, Role};
use std::collections::HashMap;

/// A guest virtual machine.
#[derive(Debug, Clone, PartialEq)]
pub struct Vm {
    /// VM name.
    pub name: String,
    /// Virtual CPUs.
    pub vcpus: u32,
    /// Guest OS label (e.g. `"linux-arm64"`).
    pub guest_os: String,
    /// vFPGA handles granted to this guest.
    pub vfpgas: Vec<String>,
}

/// A grant record: which physical device/slot backs a handle.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Grant {
    device: usize,
    slot: usize,
    vm: String,
}

/// Manages physical FPGA devices and grants virtual handles to VMs.
#[derive(Debug, Clone, Default)]
pub struct VfpgaManager {
    devices: Vec<FpgaDevice>,
    grants: HashMap<String, Grant>,
    next_handle: usize,
}

impl VfpgaManager {
    /// Creates a manager over the given physical devices.
    pub(crate) fn new(devices: Vec<FpgaDevice>) -> VfpgaManager {
        VfpgaManager { devices, grants: HashMap::new(), next_handle: 0 }
    }

    /// Total free LUTs across all devices (what the autotuner sees).
    pub fn free_luts(&self) -> u64 {
        self.devices.iter().map(|d| d.available_fabric().luts).sum()
    }

    /// Grants a vFPGA running `role_name` with the given area to `vm`.
    /// Deploys into the first device with room (first-fit).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Exhausted`] when no device can host the
    /// role, naming every device tried and why it refused.
    pub(crate) fn request(
        &mut self,
        vm: &str,
        role_name: &str,
        area: AreaReport,
    ) -> RuntimeResult<String> {
        let mut refusals = Vec::with_capacity(self.devices.len());
        for (di, device) in self.devices.iter_mut().enumerate() {
            let role = Role { name: role_name.to_owned(), area };
            match device.deploy(role) {
                Ok(slot) => {
                    let handle = format!("vfpga{}", self.next_handle);
                    self.next_handle += 1;
                    self.grants
                        .insert(handle.clone(), Grant { device: di, slot, vm: vm.to_owned() });
                    return Ok(handle);
                }
                Err(e) => refusals.push((device.name.clone(), e.to_string())),
            }
        }
        Err(RuntimeError::Exhausted { role: role_name.to_owned(), luts: area.luts, refusals })
    }

    /// Releases a handle, freeing the PR slot.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Unknown`] for a bogus handle.
    pub fn release(&mut self, handle: &str) -> RuntimeResult<()> {
        let grant =
            self.grants.remove(handle).ok_or_else(|| RuntimeError::Unknown(handle.to_owned()))?;
        self.devices[grant.device]
            .undeploy(grant.slot)
            .map_err(|e| RuntimeError::Allocation(e.to_string()))?;
        Ok(())
    }
}

/// The hypervisor of one node: VMs plus the vFPGA manager.
#[derive(Debug, Clone, Default)]
pub struct Hypervisor {
    /// Host node name.
    pub node: String,
    vms: Vec<Vm>,
    /// The vFPGA manager.
    pub vfpga: VfpgaManager,
}

impl Hypervisor {
    /// Creates a hypervisor managing `devices` on `node`.
    pub fn new(node: impl Into<String>, devices: Vec<FpgaDevice>) -> Hypervisor {
        Hypervisor { node: node.into(), vms: Vec::new(), vfpga: VfpgaManager::new(devices) }
    }

    /// Boots a VM.
    pub fn create_vm(&mut self, name: impl Into<String>, vcpus: u32, guest_os: &str) -> &Vm {
        self.vms.push(Vm {
            name: name.into(),
            vcpus,
            guest_os: guest_os.to_owned(),
            vfpgas: Vec::new(),
        });
        self.vms.last().expect("just pushed")
    }

    /// Looks up a VM.
    pub fn vm(&self, name: &str) -> Option<&Vm> {
        self.vms.iter().find(|v| v.name == name)
    }

    /// Grants a vFPGA to a VM (deploys the role and records the handle).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Unknown`] for a missing VM;
    /// [`RuntimeError::Exhausted`] when no device fits.
    pub fn attach_vfpga(
        &mut self,
        vm_name: &str,
        role: &str,
        area: AreaReport,
    ) -> RuntimeResult<String> {
        if !self.vms.iter().any(|v| v.name == vm_name) {
            return Err(RuntimeError::Unknown(vm_name.to_owned()));
        }
        let handle = self.vfpga.request(vm_name, role, area)?;
        if let Some(vm) = self.vms.iter_mut().find(|v| v.name == vm_name) {
            vm.vfpgas.push(handle.clone());
        }
        Ok(handle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_area(luts: u64) -> AreaReport {
        AreaReport { luts, ffs: luts, dsps: 2, brams: 4 }
    }

    fn hypervisor() -> Hypervisor {
        Hypervisor::new(
            "cloud-p9",
            vec![FpgaDevice::bus_attached("capi0"), FpgaDevice::network_attached("cf0", true)],
        )
    }

    #[test]
    fn vm_lifecycle_and_attachment() {
        let mut h = hypervisor();
        h.create_vm("guest0", 4, "linux-ppc64le");
        let handle = h.attach_vfpga("guest0", "gemm", small_area(10_000)).unwrap();
        assert_eq!(h.vm("guest0").unwrap().vfpgas, vec![handle]);
    }

    #[test]
    fn attach_to_missing_vm_fails() {
        let mut h = hypervisor();
        assert!(matches!(
            h.attach_vfpga("ghost", "gemm", small_area(1_000)),
            Err(RuntimeError::Unknown(_))
        ));
    }

    #[test]
    fn allocation_exhaustion_reported() {
        let mut h = hypervisor();
        h.create_vm("g", 2, "linux");
        // capi0 and cf0 expose two PR slots each: the fifth role has
        // nowhere to go.
        for i in 0..4 {
            h.attach_vfpga("g", &format!("r{i}"), small_area(1_000)).unwrap();
        }
        let err = h.attach_vfpga("g", "r4", small_area(1_000)).unwrap_err();
        let RuntimeError::Exhausted { role, refusals, .. } = err else {
            panic!("expected Exhausted, got {err:?}");
        };
        assert_eq!(role, "r4");
        // Both devices are named with their refusal reason.
        assert_eq!(refusals.len(), 2);
        assert_eq!(refusals[0].0, "capi0");
        assert_eq!(refusals[1].0, "cf0");
        assert!(refusals.iter().all(|(_, reason)| reason.contains("PR slots")));
    }

    #[test]
    fn free_luts_shrink_and_recover() {
        let mut h = hypervisor();
        h.create_vm("g", 2, "linux");
        let before = h.vfpga.free_luts();
        let handle = h.attach_vfpga("g", "big", small_area(50_000)).unwrap();
        assert_eq!(h.vfpga.free_luts(), before - 50_000);
        h.vfpga.release(&handle).unwrap();
        assert_eq!(h.vfpga.free_luts(), before);
    }

    #[test]
    fn release_unknown_handle_fails() {
        let mut m = VfpgaManager::new(vec![FpgaDevice::bus_attached("d")]);
        assert!(matches!(m.release("vfpga99"), Err(RuntimeError::Unknown(_))));
    }
}
