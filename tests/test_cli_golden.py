"""Byte-for-byte pins of the CLI's stdout on the worked-example corpus.

Each case runs one command in text and in ``--json`` form and compares
the exit code and the sha256 of stdout with digests recorded before the
pipeline's restart and expansion loops were merged.  A refactor that
keeps the report unchanged leaves every digest equal; an intended output
change must re-record the table and say why.
"""

import hashlib

import pytest

from polartree.cli import run

GOLDEN = [
    ('roots --fixture sec2', 0, "e5d0c237f57a52632152771f9ba6bf2687148e53f58fa782ccf6bc85c1d86a5b"),
    ('roots --fixture sec2 --json', 0, "1b89b2393e6327299c358473821245f44a4fc9ccc2d4a2674622fcdcaf0f07e1"),
    ('roots --fixture ex11', 0, "a19c5e4b4e2bfb32ae50c4643f3dc401d0ed3ae460db1c5a0f55696c59d647b9"),
    ('roots --fixture ex11 --json', 0, "500625621a9f9d930e7282327c2169f44541bda65055ce0fda681599bfc11658"),
    ('roots --fixture ex11-neg', 0, "0f1f38cf1c935d3b27e33b59d84c3b4c99584f03851ea6730ea2baefdb2559cb"),
    ('roots --fixture ex11-neg --json', 0, "7316b6f2765444c3189fea18eedb5d1e91e3b0ae17927cf9f9d4ee15b64c0117"),
    ('roots --fixture ex61', 0, "e8374bd5fb27817a40d0f1f3af8810ba7605f15b4d2282418fba5f168bbc7f11"),
    ('roots --fixture ex61 --json', 0, "c34f134877e413730854da3e82b3d1d9c1ae0eb15592d0bf58c8d67d2eacfa04"),
    ('roots --fixture ex82', 0, "0149a658b3911355e1696e6982f191fb2887e9671c159d7a77280e442f046005"),
    ('roots --fixture ex82 --json', 0, "f290f4bc9e93d1b9bdc79e51ce637920b79115c276e574b486906e3ea1a612b7"),
    ('roots --fixture cusp34', 0, "0149a658b3911355e1696e6982f191fb2887e9671c159d7a77280e442f046005"),
    ('roots --fixture cusp34 --json', 0, "f290f4bc9e93d1b9bdc79e51ce637920b79115c276e574b486906e3ea1a612b7"),
    ('roots --fixture merle2pair', 0, "ae914f383653e191b1e6e90ad821e3e25df2071550f742bda3ecf282636402cd"),
    ('roots --fixture merle2pair --json', 0, "b7523c08b428b1d9efef249353c7af72221bf90c10dbda46f08b9f20045ce950"),
    ('tree --fixture sec2', 0, "960527176808b1b97fd3149ff3cf8ea85f945ee658253bb4647e1079ef0f2485"),
    ('tree --fixture sec2 --json', 0, "f6cd476876984333b83384afa047627c066a8eb4ad0b0ac4fc55be4ed19618a8"),
    ('tree --fixture ex11', 0, "ab1dde0806cc5d3c2ecaa01da954c1e02f6eafd9befab14613e5cbd5aac4342f"),
    ('tree --fixture ex11 --json', 0, "7f34b29870d2542acf6fa679e247333591e6cff07430f67174f5b2d4a6dbdae0"),
    ('tree --fixture ex11-neg', 0, "9fcc266384179c60c9d5a939e1069a28935257f115ebef84927bf1d628795fca"),
    ('tree --fixture ex11-neg --json', 0, "aae6a67c2897a506eb52a077930db62f7597fd548a902631871919b476b2aedc"),
    ('tree --fixture ex61', 0, "4b542555933cf96a219e32e7f9d6c3b2634e161a60e1846a5825c47e31ff1d33"),
    ('tree --fixture ex61 --json', 0, "362835857765f9b9b5b53b5520c232788810a01d2068141948caa114682cad46"),
    ('tree --fixture ex82', 0, "41162964d21c7da6c10206cef240df104f20086213a99d740e5c87396cc05cfa"),
    ('tree --fixture ex82 --json', 0, "6fbf8bd8f9fc1e931efe23cb169a0aaf053ee2c7a85efab0b516093c811ce59e"),
    ('tree --fixture cusp34', 0, "41162964d21c7da6c10206cef240df104f20086213a99d740e5c87396cc05cfa"),
    ('tree --fixture cusp34 --json', 0, "6fbf8bd8f9fc1e931efe23cb169a0aaf053ee2c7a85efab0b516093c811ce59e"),
    ('tree --fixture merle2pair', 0, "808c17b730568f746c2feff3cc3285f73fd1d55df1f70b764597614c1e291ad1"),
    ('tree --fixture merle2pair --json', 0, "872b2ee62f3b15bf980699e31f1b9d9ee0f1535b67a6b9ef5b29f51fcbf4127e"),
    ('analyze --fixture sec2', 0, "cee4b8d5864b34f676bf28030951a794b8c998c31d653654e187c04facfb46fb"),
    ('analyze --fixture sec2 --json', 0, "ed837f2424348d6b901450793b7b2ef1ed23b31fb5fab903c8535fca597182ec"),
    ('analyze --fixture ex11', 0, "42439474c96de9913bfd4aa8c87e14b03149ee021cc722fafd4be09ed8b4141f"),
    ('analyze --fixture ex11 --json', 0, "bdeee5e4ac7e45e2cc0435d650a1230aa95069f32e87e624843eb5df9b6486ea"),
    ('analyze --fixture ex11-neg', 0, "7ee5079794683093a3812b63c7de9c67b3aa7a2fe7fd22e2792346ccc5700875"),
    ('analyze --fixture ex11-neg --json', 0, "7762aeb2eb6ce1b2ca083b8475c4281514c99d02ad3454c7fca5b1537db8b82c"),
    ('analyze --fixture ex61', 0, "202b035912fc8efa69a0539a856ab715dab1ad2496fda81ff3e1b83e58c8493e"),
    ('analyze --fixture ex61 --json', 0, "eb513cb1da7692cc13e505b72c4450047f0bc73ac3b7fe56328a54e7f2db45fd"),
    ('analyze --fixture ex82', 0, "2834f48960783548ab9da19030fde6833ef4bce09730641dcd4e30f130563fbc"),
    ('analyze --fixture ex82 --json', 0, "c36675049e95952cf99520f28a5d37b8db5e05a6e2e7eafc4ffc88e64b7ae78b"),
    ('analyze --fixture cusp34', 0, "2834f48960783548ab9da19030fde6833ef4bce09730641dcd4e30f130563fbc"),
    ('analyze --fixture cusp34 --json', 0, "c36675049e95952cf99520f28a5d37b8db5e05a6e2e7eafc4ffc88e64b7ae78b"),
    ('analyze --fixture merle2pair', 0, "ed75d7f407d2f63b7050d51f7275985e8f8685d7c9a18a275595d82cf9381a4c"),
    ('analyze --fixture merle2pair --json', 0, "6a9ec4645d9b00a076b82772dbf945e8a6510c448ee4b82233e8e5d4530f276f"),
    ('verify --fixture sec2', 0, "cee4b8d5864b34f676bf28030951a794b8c998c31d653654e187c04facfb46fb"),
    ('verify --fixture sec2 --json', 0, "ed837f2424348d6b901450793b7b2ef1ed23b31fb5fab903c8535fca597182ec"),
    ('verify --fixture ex11', 0, "42439474c96de9913bfd4aa8c87e14b03149ee021cc722fafd4be09ed8b4141f"),
    ('verify --fixture ex11 --json', 0, "bdeee5e4ac7e45e2cc0435d650a1230aa95069f32e87e624843eb5df9b6486ea"),
    ('verify --fixture ex11-neg', 0, "7ee5079794683093a3812b63c7de9c67b3aa7a2fe7fd22e2792346ccc5700875"),
    ('verify --fixture ex11-neg --json', 0, "7762aeb2eb6ce1b2ca083b8475c4281514c99d02ad3454c7fca5b1537db8b82c"),
    ('verify --fixture ex61', 0, "202b035912fc8efa69a0539a856ab715dab1ad2496fda81ff3e1b83e58c8493e"),
    ('verify --fixture ex61 --json', 0, "eb513cb1da7692cc13e505b72c4450047f0bc73ac3b7fe56328a54e7f2db45fd"),
    ('verify --fixture ex82', 0, "2834f48960783548ab9da19030fde6833ef4bce09730641dcd4e30f130563fbc"),
    ('verify --fixture ex82 --json', 0, "c36675049e95952cf99520f28a5d37b8db5e05a6e2e7eafc4ffc88e64b7ae78b"),
    ('verify --fixture cusp34', 0, "2834f48960783548ab9da19030fde6833ef4bce09730641dcd4e30f130563fbc"),
    ('verify --fixture cusp34 --json', 0, "c36675049e95952cf99520f28a5d37b8db5e05a6e2e7eafc4ffc88e64b7ae78b"),
    ('verify --fixture merle2pair', 0, "ed75d7f407d2f63b7050d51f7275985e8f8685d7c9a18a275595d82cf9381a4c"),
    ('verify --fixture merle2pair --json', 0, "6a9ec4645d9b00a076b82772dbf945e8a6510c448ee4b82233e8e5d4530f276f"),
    ('factor --fixture sec2', 0, "9950ea6ed19782dd493e453eb5e3333be4e50a7899e3756a6d5058004465478d"),
    ('factor --fixture sec2 --json', 0, "2ac15e6def9a88ea14b439718a8c6fe2dfbdc0ec18342f9b19bb92908dee7e98"),
    ('factor --fixture ex11', 0, "409c603e08117095cf9676b186de0935e95b8ea47ef3faa09b728ed257b6beaf"),
    ('factor --fixture ex11 --json', 0, "429228e6b53e61cde7a5bdedfa097e06e27c829dce79a6717faa5d80a1bda993"),
    ('factor --fixture ex11-neg', 0, "409c603e08117095cf9676b186de0935e95b8ea47ef3faa09b728ed257b6beaf"),
    ('factor --fixture ex11-neg --json', 0, "bd1731c87151336383566db74705d2a79eb83cd2693b55dda5bcf116cea2a510"),
    ('factor --fixture ex61', 0, "58bb9d2acb96869c22c2a048f344a6d62bf8f8d714e8aa9101694bd837f8cc38"),
    ('factor --fixture ex61 --json', 0, "3280626164e4004d17b9148a38b7e9f3bd618684063a281d000227acccaced65"),
    ('factor --fixture ex82', 0, "523a34fc125592189e115b1d1613a1f9d22bd21e7b26fece1a6c31e764e92fd9"),
    ('factor --fixture ex82 --json', 0, "6b5cb3b8c64772366436182031c596160652c8d6ad326cf43e07f2bdf64ce2fd"),
    ('factor --fixture cusp34', 0, "523a34fc125592189e115b1d1613a1f9d22bd21e7b26fece1a6c31e764e92fd9"),
    ('factor --fixture cusp34 --json', 0, "6b5cb3b8c64772366436182031c596160652c8d6ad326cf43e07f2bdf64ce2fd"),
    ('factor --fixture merle2pair', 0, "40ca7ced8d912c284543d76fa18c3e39f8dd87447385f8329be1eaba81159432"),
    ('factor --fixture merle2pair --json', 0, "219fa3bf22979d6dea0b7b563c3ff47d311ac554f3051f732c2d116a652a20c1"),
    ('generic --fixture sec2', 0, "dcebf7b5fa87132b702c1690a0e4674010f15c84d86cc34a327d228a1917f068"),
    ('generic --fixture sec2 --json', 0, "c9d592532cd6c6aa642ee48334f537ba95852d6f91f44459ba061bb15e385e29"),
    ('generic --fixture ex11', 0, "b634a1c1eae7ce98c31c940e8b58744b7a1f8889167eaa1193e7721ac71c969f"),
    ('generic --fixture ex11 --json', 0, "7c042a10e3833978e565822864ee49d1c3d057fbf20c38d1ee71cb14c299c459"),
    ('generic --fixture ex11-neg', 0, "811706c598596b60fb25b3155471297851388e8fe03bec32a7bb1e5007c25d37"),
    ('generic --fixture ex11-neg --json', 0, "2e826625b7678d3807ca3f5ae12693a3b6f67ece61c83bde16934636f76d9d03"),
    ('generic --fixture ex61', 0, "ed12c86473686deec682cf343b332d6d9ea7b6339fd1ef94f343f42c2a00e2a1"),
    ('generic --fixture ex61 --json', 0, "4249481020a35ee06892faf9b40d612e86683b7c8152774fa0049ad5f351ed80"),
    ('generic --fixture ex82', 0, "a3a7273be279f3478fb50079762d4269d47739bb5aa6b693315cc817e26a48fd"),
    ('generic --fixture ex82 --json', 0, "18ff8d5719c66c93b39bd06bba58f0909348fbbb1a4500e8795d0c2a88693ead"),
    ('generic --fixture cusp34', 0, "a3a7273be279f3478fb50079762d4269d47739bb5aa6b693315cc817e26a48fd"),
    ('generic --fixture cusp34 --json', 0, "18ff8d5719c66c93b39bd06bba58f0909348fbbb1a4500e8795d0c2a88693ead"),
    ('generic --fixture merle2pair', 0, "5425275ffe3932d1ec9f9dd71b09a7058cdd3be9992b1fd5780eb1ada8f9122a"),
    ('generic --fixture merle2pair --json', 0, "1a76e26b3999eff3e3a431814d204570da73d60e371ae279e1b0a0560b7eda69"),
    ('compare --fixture ex61 --fixture2 ex61-e9', 0, "47279b3d257b343ebb89d259d260d7fff183ff8d3ce59974981df24ab7d26c06"),
    ('compare --fixture ex61 --fixture2 ex61-e9 --json', 0, "2d6807021d995200e89f565c1e5f15ab7b649ba3fd0d9ce5723b76a7b5877693"),
    ('compare --fixture ex82 --fixture2 ex82-prime', 0, "47279b3d257b343ebb89d259d260d7fff183ff8d3ce59974981df24ab7d26c06"),
    ('compare --fixture ex82 --fixture2 ex82-prime --json', 0, "b2f0a21de71bbaaa8ff9bc54c25c23bfd0651c751a8efbfecde293e3ebd95313"),
    ('reduce --fixture mero83', 0, "0e1c54c0bf0c8920c2863136d532ee5858edb854ec3fe7ef59e3287e9f3934c2"),
    ('reduce --fixture mero83 --json', 0, "e1465b548a202e415936e0cf56283005c0734ba4c232f3f69580ab1c295c61e7"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[a for a, _, _ in GOLDEN])
def test_cli_stdout_matches_golden(capsys, argv, code, digest):
    assert run(argv.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
