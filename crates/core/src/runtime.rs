//! Assembly of the full Pathways backend over a simulated cluster.

use pathways_sim::hash::FxHashMap;
use pathways_sim::Lock;
use std::fmt;
use std::sync::Arc;

use pathways_device::{DeviceConfig, Fleet};
use pathways_net::{ClientId, ClusterSpec, HostId, NetworkParams, Router, Topology};
use pathways_plaque::PlaqueRuntime;
use pathways_sim::{ExecutorRef, FaultPlan};

use crate::client::Client;
use crate::config::PathwaysConfig;
use crate::context::CoreCtx;
use crate::exec::{spawn_executor, ExecutorShared};
use crate::fault::{FailureState, FaultInjector, FaultSpec};
use crate::resource::ResourceManager;
use crate::sched::{scheduler_hosts, spawn_scheduler, SchedulerHandle};
use crate::storage::ObjectStore;

/// A fully-assembled Pathways backend: devices, executors, schedulers,
/// object store, coordination substrate and resource manager, all
/// running as tasks on one simulation.
pub struct PathwaysRuntime {
    core: Arc<CoreCtx>,
    rm: Arc<ResourceManager>,
    schedulers: FxHashMap<pathways_net::IslandId, SchedulerHandle>,
    injector: Arc<FaultInjector>,
    next_client: Lock<u32>,
}

impl fmt::Debug for PathwaysRuntime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PathwaysRuntime")
            .field("devices", &self.core.devices.len())
            .field("islands", &self.schedulers.len())
            .finish()
    }
}

impl PathwaysRuntime {
    /// Builds the backend on `exec` for the given cluster. `exec` is
    /// anything that exposes a [`SimHandle`](pathways_sim::SimHandle) —
    /// a [`Sim`](pathways_sim::Sim), a
    /// [`ThreadedExecutor`](pathways_sim::ThreadedExecutor), or the
    /// backend-erased [`Executor`](pathways_sim::Executor).
    pub fn new(
        exec: &impl ExecutorRef,
        spec: ClusterSpec,
        net: NetworkParams,
        cfg: PathwaysConfig,
    ) -> Self {
        let Fleet {
            handle,
            topo,
            fabric,
            devices,
        } = Fleet::spawn(
            &exec.executor_handle(),
            spec,
            net,
            DeviceConfig {
                hbm_capacity: cfg.hbm_per_device,
            },
        );
        let devices = Arc::new(devices);

        let store = match &cfg.tiers {
            Some(tc) => ObjectStore::with_tiers(handle.clone(), Arc::clone(&topo), tc.clone()),
            None => ObjectStore::new(),
        };
        let sched_router = Router::new(fabric.clone());
        let exec_router = Router::new(fabric.clone());
        let plaque = PlaqueRuntime::new(fabric.clone());
        let failures = FailureState::new();

        // Executors: one per host.
        let mut executors = FxHashMap::default();
        for host in topo.hosts() {
            let shared = ExecutorShared::new();
            spawn_executor(
                &handle,
                host,
                &exec_router,
                shared.clone(),
                fabric.clone(),
                store.clone(),
                Arc::clone(&devices),
                plaque.clone(),
                failures.clone(),
                cfg.dispatch,
            );
            executors.insert(host, shared);
        }

        // Schedulers: one per island, on the island's first host.
        // Submissions arrive on the sched router; grants leave on the
        // exec router (separate namespaces, one shared physical NIC).
        let sched_hosts = scheduler_hosts(&topo);
        let mut schedulers = FxHashMap::default();
        for island in topo.islands() {
            let host = sched_hosts[&island];
            let sh = spawn_scheduler(
                &handle,
                sched_router.clone(),
                exec_router.clone(),
                island,
                host,
                topo.devices_of_island(island).len() as u32,
                &cfg.policy,
                cfg.sched_horizon,
                cfg.batch_grants,
                failures.clone(),
            );
            schedulers.insert(island, sh);
        }
        let core = Arc::new(CoreCtx {
            handle: handle.clone(),
            fabric,
            store,
            plaque,
            sched_router,
            exec_router,
            devices,
            executors,
            sched_hosts,
            bindings: Lock::named("core.bindings", FxHashMap::default()),
            input_slots: Lock::named("core.input_slots", FxHashMap::default()),
            failures,
            cfg,
        });
        let rm = Arc::new(ResourceManager::new(Arc::clone(&topo)));
        let injector =
            FaultInjector::new(Arc::clone(&core), Arc::clone(&rm), core.failures.clone());
        PathwaysRuntime {
            core,
            rm,
            schedulers,
            injector,
            next_client: Lock::new(0),
        }
    }

    /// The shared context (for advanced integrations and tests).
    pub fn core(&self) -> &Arc<CoreCtx> {
        &self.core
    }

    /// The resource manager.
    pub fn resource_manager(&self) -> &Arc<ResourceManager> {
        &self.rm
    }

    /// The topology.
    pub fn topology(&self) -> Arc<Topology> {
        Arc::clone(self.core.fabric.topology())
    }

    /// Per-island scheduler handles.
    pub fn scheduler(&self, island: pathways_net::IslandId) -> &SchedulerHandle {
        &self.schedulers[&island]
    }

    /// Creates a client on `host` with an auto-generated label.
    pub fn client(&self, host: HostId) -> Client {
        let id = {
            let mut n = self.next_client.lock();
            let id = ClientId(*n);
            *n += 1;
            id
        };
        let label = label_for(id);
        Client::new(
            id,
            label,
            host,
            Arc::clone(&self.core),
            Arc::clone(&self.rm),
        )
    }

    /// Creates a client with an explicit trace label (Figure 9 uses
    /// single letters).
    pub fn client_labeled(&self, host: HostId, label: impl Into<String>) -> Client {
        let id = {
            let mut n = self.next_client.lock();
            let id = ClientId(*n);
            *n += 1;
            id
        };
        Client::new(
            id,
            label.into(),
            host,
            Arc::clone(&self.core),
            Arc::clone(&self.rm),
        )
    }

    /// The fault injector: apply [`FaultSpec`]s immediately or inspect
    /// the failure registry, housekeeping error log, and heal log.
    pub fn faults(&self) -> &Arc<FaultInjector> {
        &self.injector
    }

    /// Registers a scripted [`FaultPlan`] on the simulation: each fault
    /// is injected at its exact virtual time (and stamped onto the
    /// trace's `faults` track, so fault schedules are part of the
    /// replayable event trace).
    pub fn install_fault_plan(&self, plan: FaultPlan<FaultSpec>) {
        self.injector.install_plan(&self.core.handle, plan);
    }

    /// Simulates abrupt failure of a client: its in-flight runs fail
    /// (downstream consumers observe `Err(ObjectError::ProducerFailed)`
    /// rather than stale data), every object it owns is
    /// garbage-collected, and its slices are released. (The client's
    /// tasks should separately be aborted by the test harness.) Returns
    /// the number of objects freed.
    pub fn fail_client(&self, client: ClientId) -> usize {
        self.injector.fail_client(client)
    }
}

fn label_for(id: ClientId) -> String {
    // A, B, ..., Z, a, b, ... for readable trace renderings.
    let n = id.0;
    let ch = if n < 26 {
        (b'A' + n as u8) as char
    } else if n < 52 {
        (b'a' + (n - 26) as u8) as char
    } else {
        '#'
    };
    format!("{ch}")
}
