//! Experiment implementations, one module per paper table/figure.

pub mod audit;
pub mod configs;
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
