//! Experiment implementations, one module per paper table/figure.

pub mod audit;
pub mod fig3a;
pub mod fig3b;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7_8;
pub mod groupwrite;
pub mod metaindex;
pub mod negpred;
pub mod pageread;
pub mod recovery;
pub mod remote;
pub mod sharding;
pub mod table1;
pub mod table3;
pub mod writebatch;

use connectors::registry::{Deployment, Posture, ScratchDir};

/// The paper's compliant deployment (§5), persisting in `scratch`.
pub(crate) fn compliant_in(scratch: &ScratchDir) -> Deployment {
    Deployment {
        posture: Posture::COMPLIANT,
        data_dir: Some(scratch.to_path_buf()),
        ..Deployment::default()
    }
}
