//! Deployment orchestration: "a developer can set up a distributed-trust
//! application without expensive, cross-organization coordination" (§2.1).
//!
//! [`Deployment::launch`] performs the paper's entire bootstrap in one
//! call: provision heterogeneous simulated TEEs (round-robin across the
//! three vendors, §3.2), seal the framework + developer key into each,
//! start trust domain 0 natively (no secure hardware, single socket) and
//! domains 1..n behind enclave proxies (two sockets), and install the
//! initial signed release through the same update path every later release
//! uses — so version 1 is in the append-only logs like any other version.

use crate::abi::AppHost;
use crate::client::{DeploymentClient, DeploymentDescriptor, DomainInfo};
use crate::framework::{
    framework_measurement, EnclaveFramework, FrameworkConfig, FrameworkService,
};
use crate::manifest::SignedRelease;
use crate::server::DirectHost;
use distrust_crypto::drbg::HmacDrbg;
use distrust_crypto::schnorr::SigningKey;
use distrust_log::checkpoint::log_id;
use distrust_log::store::{DurableOptions, StorageConfig, StoreError};
use distrust_sandbox::{Limits, Module};
use distrust_tee::host::EnclaveHost;
use distrust_tee::vendor::{Vendor, VendorKind, VendorRoots};
use std::path::Path;

/// The application a deployment runs: module, name, and one host-function
/// provider per trust domain (domain-specific state such as key shares
/// lives inside these).
pub struct AppSpec {
    /// Application name (pins the deployment).
    pub name: String,
    /// Version-1 module.
    pub module: Module,
    /// Release notes for version 1.
    pub notes: String,
    /// Per-domain host imports; `hosts.len()` defines `n`.
    pub hosts: Vec<Box<dyn AppHost>>,
    /// Sandbox limits applied to every instance.
    pub limits: Limits,
}

enum RunningHost {
    Direct(DirectHost),
    Tee(EnclaveHost),
}

impl RunningHost {
    fn shutdown(&mut self) {
        match self {
            RunningHost::Direct(h) => h.shutdown(),
            RunningHost::Tee(h) => h.shutdown(),
        }
    }
}

/// A live deployment: servers for all `n` trust domains plus everything a
/// client needs to reach them.
pub struct Deployment {
    /// Client-facing description of the deployment.
    pub descriptor: DeploymentDescriptor,
    /// The developer's release-signing key (held by "the developer"; tests
    /// use it to push updates, attackers in tests try to live without it).
    pub developer: SigningKey,
    /// The simulated vendors, exposed so security tests can inject
    /// vendor-level compromises.
    pub vendors: Vec<Vendor>,
    /// Digest of the version-1 module (what `audit` should agree on).
    pub initial_app_digest: [u8; 32],
    hosts: Vec<RunningHost>,
}

/// Errors during launch.
#[derive(Debug)]
pub enum DeployError {
    /// Fewer than one domain requested.
    NoDomains,
    /// Socket setup failed.
    Io(std::io::Error),
    /// The initial release was rejected by a framework (bug in the app
    /// module — surfaced immediately rather than at first client call).
    InitialRelease(String),
    /// A domain's durable log failed to open or recover — corrupt beyond
    /// repair, signed history outrunning the recovered log, or plain I/O.
    Storage(StoreError),
}

impl core::fmt::Display for DeployError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::NoDomains => write!(f, "deployment needs at least one domain"),
            Self::Io(e) => write!(f, "i/o error during launch: {e}"),
            Self::InitialRelease(e) => write!(f, "initial release rejected: {e}"),
            Self::Storage(e) => write!(f, "domain log storage failed: {e}"),
        }
    }
}

impl From<StoreError> for DeployError {
    fn from(e: StoreError) -> Self {
        Self::Storage(e)
    }
}

impl std::error::Error for DeployError {}

impl From<std::io::Error> for DeployError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl Deployment {
    /// Bootstraps the full deployment. `seed` makes the whole topology
    /// reproducible (vendor roots, device keys, developer key). The
    /// append-only logs use the single-tree (1-shard) layout;
    /// see [`Deployment::launch_sharded`] for multi-shard logs.
    pub fn launch(spec: AppSpec, seed: &[u8]) -> Result<Self, DeployError> {
        Self::launch_sharded(spec, seed, 1)
    }

    /// [`Deployment::launch`] with `log_shards` shards per domain log
    /// (`0`/`1` = the byte-compatible single-tree layout). Multi-shard
    /// domains sign shard-head commitments and serve sharded audit
    /// bundles; clients handle both transparently.
    pub fn launch_sharded(
        spec: AppSpec,
        seed: &[u8],
        log_shards: u32,
    ) -> Result<Self, DeployError> {
        Self::launch_inner(spec, seed, log_shards, None)
    }

    /// [`Deployment::launch_sharded`] with durable per-domain logs under
    /// `data_dir` (one `domain-<i>/` subdirectory each). On a fresh
    /// directory this behaves exactly like an ephemeral launch; on a
    /// directory left by a previous launch each domain **recovers** its
    /// log and signed history and resumes where it crashed — the restart
    /// serves the same checkpoints, so auditing clients holding the
    /// pre-crash head see ordinary growth, never equivocation. The
    /// version-1 install is skipped for domains that already activated it
    /// (their logs prove it); note the sandboxed app *instance* is not
    /// persisted (TEEs cannot migrate app state, §4.1), so a resumed
    /// domain serves log/audit traffic immediately but needs the next
    /// signed release before serving app calls again.
    pub fn launch_durable(
        spec: AppSpec,
        seed: &[u8],
        log_shards: u32,
        data_dir: &Path,
    ) -> Result<Self, DeployError> {
        Self::launch_inner(spec, seed, log_shards, Some(data_dir))
    }

    fn launch_inner(
        spec: AppSpec,
        seed: &[u8],
        log_shards: u32,
        data_dir: Option<&Path>,
    ) -> Result<Self, DeployError> {
        let n = spec.hosts.len();
        if n == 0 {
            return Err(DeployError::NoDomains);
        }
        let developer = SigningKey::derive(seed, b"distrust/developer-key");
        let developer_pub = developer.verifying_key();
        let measurement = framework_measurement(&developer_pub, &spec.name);
        let deployment_id =
            distrust_crypto::sha256_many(&[b"deployment", seed, spec.name.as_bytes()]);

        // One simulated vendor per ecosystem; domains 1..n round-robin.
        let vendors: Vec<Vendor> = VendorKind::ALL
            .iter()
            .map(|k| Vendor::new(*k, seed))
            .collect();
        let vendor_roots = VendorRoots::from_vendors(&vendors);

        let mut rng = HmacDrbg::new(seed, b"distrust/deploy-rng");
        let mut hosts = Vec::with_capacity(n);
        let mut domain_infos = Vec::with_capacity(n);
        let mut resumed = Vec::with_capacity(n);

        for (index, app_host) in spec.hosts.into_iter().enumerate() {
            let index = index as u32;
            let lid = log_id(&deployment_id, index);
            let storage = match data_dir {
                Some(dir) => {
                    StorageConfig::Durable(DurableOptions::new(dir.join(format!("domain-{index}"))))
                }
                None => StorageConfig::Ephemeral,
            };
            if index == 0 {
                // The developer's own domain: no secure hardware.
                let checkpoint_key = SigningKey::derive(seed, b"domain-0-checkpoint");
                let framework = EnclaveFramework::open(
                    FrameworkConfig {
                        domain_index: index,
                        app_name: spec.name.clone(),
                        developer_key: developer_pub,
                        log_id: lid,
                        limits: spec.limits,
                        log_shards,
                        storage,
                    },
                    None,
                    checkpoint_key,
                    app_host,
                )?;
                resumed.push(framework.current_version() >= 1);
                let host = DirectHost::spawn(FrameworkService::new(framework))?;
                domain_infos.push(DomainInfo {
                    index,
                    addr: host.addr(),
                    vendor: None,
                    checkpoint_key: SigningKey::derive(seed, b"domain-0-checkpoint")
                        .verifying_key(),
                });
                hosts.push(RunningHost::Direct(host));
            } else {
                let vendor = &vendors[(index as usize - 1) % vendors.len()];
                let device = vendor.provision_device(&mut rng);
                let enclave = device.launch(measurement);
                let checkpoint_key = enclave.derive_signing_key(b"checkpoint");
                let checkpoint_pub = checkpoint_key.verifying_key();
                let framework = EnclaveFramework::open(
                    FrameworkConfig {
                        domain_index: index,
                        app_name: spec.name.clone(),
                        developer_key: developer_pub,
                        log_id: lid,
                        limits: spec.limits,
                        log_shards,
                        storage,
                    },
                    Some(enclave),
                    checkpoint_key,
                    app_host,
                )?;
                resumed.push(framework.current_version() >= 1);
                let host = EnclaveHost::spawn(FrameworkService::new(framework))?;
                domain_infos.push(DomainInfo {
                    index,
                    addr: host.addr(),
                    vendor: Some(vendor.kind()),
                    checkpoint_key: checkpoint_pub,
                });
                hosts.push(RunningHost::Tee(host));
            }
        }

        let descriptor = DeploymentDescriptor {
            app_name: spec.name.clone(),
            developer_key: developer_pub,
            vendor_roots,
            domains: domain_infos,
        };

        // Install version 1 through the ordinary signed-update path —
        // unless every domain already has it in its recovered log (a pure
        // restart): re-pushing would only collect StaleVersion rejections.
        let release = SignedRelease::create(&spec.name, 1, &spec.notes, &spec.module, &developer);
        let initial_app_digest = release.digest();
        if !resumed.iter().all(|&r| r) {
            let mut client = DeploymentClient::new(
                descriptor.clone(),
                Box::new(HmacDrbg::new(seed, b"distrust/deploy-client")),
            );
            // Results arrive in domain order; a resumed domain rejecting
            // the replayed version 1 as stale is correct behavior, not a
            // launch failure.
            for (result, &was_resumed) in client.push_update(&release).into_iter().zip(&resumed) {
                if !was_resumed {
                    result.map_err(|e| DeployError::InitialRelease(e.to_string()))?;
                }
            }
        }

        Ok(Self {
            descriptor,
            developer,
            vendors,
            initial_app_digest,
            hosts,
        })
    }

    /// Number of trust domains.
    pub fn domain_count(&self) -> usize {
        self.hosts.len()
    }

    /// Builds a fresh client for this deployment.
    pub fn client(&self, seed: &[u8]) -> DeploymentClient {
        DeploymentClient::new(
            self.descriptor.clone(),
            Box::new(HmacDrbg::new(seed, b"distrust/client-rng")),
        )
    }

    /// Signs a follow-up release as the developer.
    pub fn sign_release(&self, version: u64, notes: &str, module: &Module) -> SignedRelease {
        SignedRelease::create(
            &self.descriptor.app_name,
            version,
            notes,
            module,
            &self.developer,
        )
    }

    /// Signs a **final** release: once applied, every domain permanently
    /// refuses further updates (§3.3 lockdown).
    pub fn sign_final_release(&self, version: u64, notes: &str, module: &Module) -> SignedRelease {
        SignedRelease::create_final(
            &self.descriptor.app_name,
            version,
            notes,
            module,
            &self.developer,
        )
    }

    /// Stops one domain's server (fault-injection for partial-failure
    /// tests and benches: the deployment keeps serving from the others).
    pub fn shutdown_domain(&mut self, index: usize) {
        if let Some(host) = self.hosts.get_mut(index) {
            host.shutdown();
        }
    }

    /// Stops all domain servers.
    pub fn shutdown(&mut self) {
        for host in &mut self.hosts {
            host.shutdown();
        }
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        self.shutdown();
    }
}
